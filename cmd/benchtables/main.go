// Command benchtables regenerates every table and figure of the
// reproduction suite (EXPERIMENTS.md; the list is experiments.Suite) and
// prints them with their machine-verified shape checks.
//
// Usage:
//
//	benchtables [-quick] [-only E3,E7] [-list]
//
// The full suite simulates several cluster-days of virtual time and takes a
// few minutes of wall time; -quick shortens the runs while preserving the
// result shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clocksync/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "shorten simulated durations (same shapes, less wall time)")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E7)")
	list := flag.Bool("list", false, "list experiment ids and titles, then exit")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown instead of plain tables")
	flag.Parse()

	if *list {
		for _, e := range experiments.Suite {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failures := 0
	for _, e := range experiments.Suite {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		start := time.Now()
		table := e.Run(*quick)
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
			fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if !table.ChecksPass() {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed their shape checks\n", failures)
		os.Exit(1)
	}
}
