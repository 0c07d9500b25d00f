module gqbe/bench

go 1.22

require gqbe v0.0.0

replace gqbe => ../
