package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is the part of BENCHMARK.json that -compare needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// samples maps workload -> metric -> one value per recorded run.
type samples map[string]map[string][]float64

func loadSamples(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4) gives
// them (the rule the acceptance driver applies).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// verdict classifies the change of one metric's median from old to new. A
// spread wider than the bound on either side cannot resolve a change of the
// bound's size, so it is reported as such and never as unchanged.
func verdict(better string, bound, oldMed, newMed, oldSpread, newSpread float64) string {
	worse := newMed/oldMed - 1
	if better == "higher" {
		worse = 1 - newMed/oldMed
	}
	switch {
	case max(oldSpread, newSpread) > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// compareFiles prints one row per workload and end-to-end metric and returns
// the exit code: 1 if any metric regressed.
func compareFiles(w io.Writer, manifestPath, oldPath, newPath string) int {
	var man manifest
	raw, err := os.ReadFile(manifestPath)
	if err == nil {
		err = json.Unmarshal(raw, &man)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: manifest:", err)
		return 2
	}
	olds, err := loadSamples(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	news, err := loadSamples(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "%-10s %-14s %-5s %14s %14s %18s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "old", "new", "new/old", "iqr_old", "iqr_new", "bound", "verdict")
	code := 0
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			o, n := olds[wl.Name][m.Name], news[wl.Name][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			so, sn := spread(o), spread(n)
			v := verdict(m.Better, m.Bound, om, nm, so, sn)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-10s %-14s %-5s %14.4f %14.4f %8.4f of %-6.4g %7.3f %7.3f %6.2f  %s (%s is better, n=%d/%d)\n",
				wl.Name, m.Name, m.Unit, om, nm, nm/om, om, so, sn, m.Bound, v, m.Better, len(o), len(n))
		}
	}
	return code
}
