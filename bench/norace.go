//go:build linux && !race

package main

const raceEnabled = false
