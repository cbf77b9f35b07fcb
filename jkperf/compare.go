package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// timeUnits are the units whose values depend on the host's speed.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true}

type savedReport struct {
	Workload    string      `json:"workload"`
	Fingerprint fingerprint `json:"fingerprint"`
	Metrics     map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// compareReports prints new/old for every metric two saved reports share.
// Times and rates are compared only when both runs carry the same host
// and path fingerprint; counts, sizes and ratios always are.
func compareReports(oldPath, newPath string, w io.Writer) error {
	load := func(path string) (*savedReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r savedReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("reports are of different workloads: %s and %s", a.Workload, b.Workload)
	}
	same := a.Fingerprint.ID == b.Fingerprint.ID
	if !same {
		fmt.Fprintf(w, "fingerprints differ (%s vs %s): times and rates not compared\n", a.Fingerprint.ID, b.Fingerprint.ID)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n], b.Metrics[n]
		if _, ok := b.Metrics[n]; !ok || (!same && timeUnits[x.Unit]) {
			continue
		}
		ratio := "-"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", y.Value/x.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %8s %s\n", n, x.Value, y.Value, ratio, x.Unit)
	}
	return nil
}
