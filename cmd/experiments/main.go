// Command experiments regenerates every table and figure of the paper's
// evaluation section (§VI) over the synthetic datasets and prints them in
// paper order. The internal/experiments package doc gives the protocol each
// table follows.
//
// Usage:
//
//	experiments [-seed 42] [-scale 1.0] [-only fig13,tableV]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gqbe/internal/experiments"
	"gqbe/internal/kgsynth"
)

func main() {
	var (
		seed  = flag.Int64("seed", 42, "dataset seed")
		scale = flag.Float64("scale", 1.0, "dataset scale")
		only  = flag.String("only", "", "comma-separated subset: tableI,tableII,fig13,tableIII,tableIV,tableV,fig14,fig15,fig16,tableVI")
	)
	flag.Parse()

	fmt.Printf("generating datasets (seed=%d, scale=%g)...\n", *seed, *scale)
	s := experiments.NewSuite(kgsynth.Config{Seed: *seed, Scale: *scale}, experiments.Params{})
	fmt.Printf("freebase-like: %v\ndbpedia-like: %v\n\n", s.FB.Graph, s.DB.Graph)

	if *only == "" {
		fmt.Println(s.RenderAll())
		return
	}
	drivers := map[string]func() string{
		"tablei":   func() string { return s.TableI().Render() },
		"tableii":  func() string { return s.TableII().Render() },
		"fig13":    func() string { return s.Fig13().Render() },
		"tableiii": func() string { return s.TableIII().Render() },
		"tableiv":  func() string { return s.TableIV().Render() },
		"tablev":   func() string { return s.TableV().Render() },
		"fig14":    func() string { return s.Fig14().Render() },
		"fig15":    func() string { return s.Fig15().Render() },
		"fig16":    func() string { return s.Fig16().Render() },
		"tablevi":  func() string { return s.TableVI().Render() },
	}
	for _, name := range strings.Split(*only, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		d, ok := drivers[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println(d())
	}
}
