// Command perfgate is the CI perf-regression gate for the wire hot path.
//
// It compares one or more jkbench -json artifacts (the candidates) against
// the checked-in baseline and fails when any timed row regresses beyond
// the tolerance ratio — on µs/op, or on allocs/op for rows that carry an
// allocation column (Table 12). Derived ratio rows (batching speedup,
// leak counts) are informational and never gate; they have their own
// dedicated checks (the telemetry gate, the churn leak regressions).
//
// A row present in the baseline but missing from every candidate is a
// failure too: a gate that silently stops measuring a path is worse than
// one that reports a regression on it.
//
// Usage:
//
//	perfgate [-baseline bench_baseline.json] [-tolerance 1.15] BENCH_a.json [BENCH_b.json ...]
//
// Refreshing the baseline after an intentional perf change:
//
//	go run ./cmd/jkbench -quick -table 8,11,12,13 -json bench_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type row struct {
	Table     int     `json:"table"`
	Name      string  `json:"name"`
	MicrosPer float64 `json:"us_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	AllocsPer float64 `json:"allocs_per_op"`
	Ratio     float64 `json:"ratio"`
}

type benchDoc struct {
	Generated string `json:"generated"`
	Quick     bool   `json:"quick"`
	Rows      []row  `json:"rows"`
}

func load(path string) (benchDoc, error) {
	var d benchDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func key(r row) string { return fmt.Sprintf("%d\x00%s", r.Table, r.Name) }

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "checked-in baseline artifact")
	tolerance := flag.Float64("tolerance", 1.15, "allowed candidate/baseline ratio before failing")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfgate [-baseline file] [-tolerance r] BENCH_*.json")
		os.Exit(2)
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}

	// Merge every candidate artifact; later files win on duplicate rows so
	// a re-run artifact supersedes an earlier one.
	cand := make(map[string]row)
	quickMismatch := false
	for _, path := range flag.Args() {
		d, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
			os.Exit(2)
		}
		if d.Quick != base.Quick {
			quickMismatch = true
		}
		for _, r := range d.Rows {
			cand[key(r)] = r
		}
	}
	if quickMismatch {
		fmt.Fprintf(os.Stderr, "perfgate: candidate and baseline disagree on -quick; timings are not comparable\n")
		os.Exit(2)
	}

	tol := *tolerance
	failures := 0
	checked := 0
	for _, b := range base.Rows {
		if b.MicrosPer <= 0 {
			continue // derived ratio row: informational, never gates
		}
		c, ok := cand[key(b)]
		if !ok {
			fmt.Printf("FAIL  table %-2d %-55q missing from candidates\n", b.Table, b.Name)
			failures++
			continue
		}
		checked++
		r := c.MicrosPer / b.MicrosPer
		verdict := "ok  "
		if c.MicrosPer > b.MicrosPer*tol {
			verdict = "FAIL"
			failures++
		}
		fmt.Printf("%s  table %-2d %-55q %8.2fus -> %8.2fus  (%.2fx, limit %.2fx)\n",
			verdict, b.Table, b.Name, b.MicrosPer, c.MicrosPer, r, *tolerance)
		if b.AllocsPer > 0 {
			av := "ok  "
			if c.AllocsPer > b.AllocsPer*tol {
				av = "FAIL"
				failures++
			}
			fmt.Printf("%s  table %-2d %-55q %8.1f allocs -> %8.1f allocs  (%.2fx, limit %.2fx)\n",
				av, b.Table, b.Name, b.AllocsPer, c.AllocsPer, c.AllocsPer/b.AllocsPer, *tolerance)
		}
	}
	if failures > 0 {
		fmt.Printf("perfgate: %d regression(s) across %d gated row(s)\n", failures, checked)
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d row(s) within %.2fx of baseline\n", checked, *tolerance)
}
