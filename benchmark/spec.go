package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the declaration the driver reads and this
// program checks itself against.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) > 64<<10 {
		return nil, fmt.Errorf("%s is %d bytes, the limit is 64 KiB", path, len(b))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the limits the driver refuses a file for.
func (sp *spec) validate() error {
	if n := len(sp.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is too long, absolute, or leaves the repository", c)
		}
	}
	if n := len(sp.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("bad path %q", p)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range sp.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	metric := func(m specMetric, bounded bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		switch {
		case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		case !bounded && m.Bound != nil:
			return fmt.Errorf("metric %s: a per-layer metric has no bound", m.Name)
		}
		return nil
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if err := metric(m, true); err != nil {
			return err
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range sp.PerLayer {
		if err := metric(m, false); err != nil {
			return err
		}
	}
	return nil
}

// matchesCode checks the declaration against this program: the same
// workloads in the same order with the same reasons.
func (sp *spec) matchesCode() error {
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("declares %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			return fmt.Errorf("workload %d is %q in the file and %q in the program (name or why differ)",
				i, w.Name, workloads[i].name)
		}
	}
	return nil
}

// covers reports every declared metric x workload missing from a
// result file of the given mode.
func (sp *spec) covers(f *resultFile) []string {
	var missing []string
	byName := map[string]*workloadResult{}
	for _, w := range f.Workloads {
		byName[w.Name] = w
	}
	for _, w := range sp.Workloads {
		res := byName[w.Name]
		if res == nil {
			missing = append(missing, w.Name+": workload absent")
			continue
		}
		decl, have := sp.EndToEnd, res.EndToEnd
		if f.Trace {
			decl, have = sp.PerLayer, res.PerLayer
		}
		for _, m := range decl {
			if _, ok := have[m.Name]; !ok {
				missing = append(missing, w.Name+": "+m.Name)
			}
		}
	}
	return missing
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// validateFiles checks BENCHMARK.json against the contract's limits and
// against this program, then every named result file for every
// declared metric of its mode on every workload.
func validateFiles(out io.Writer, specPath string, results []string) int {
	sp, err := loadSpec(specPath)
	if err == nil {
		err = sp.validate()
	}
	if err == nil {
		err = sp.matchesCode()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	fmt.Fprintf(out, "BENCHMARK.json ok: %d workloads, %d end-to-end, %d per-layer metrics\n",
		len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
	code := 0
	for _, path := range results {
		f, err := loadResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		missing := sp.covers(f)
		for _, m := range missing {
			fmt.Fprintf(out, "%s: MISSING %s\n", path, m)
			code = 1
		}
		if len(missing) == 0 {
			fmt.Fprintf(out, "%s ok: every declared metric on every workload\n", path)
		}
	}
	return code
}

// compareFiles prints, per end-to-end metric and workload, how far b is
// from a as a share of the smaller of the two (positive when b is the
// worse one), next to the metric's bound, and returns 1 when any pair is
// further apart than its bound in either direction: two runs of the same
// code must agree, whichever ran first. A value that is missing or 0 is
// outside: no end-to-end metric is ever 0.
func compareFiles(out io.Writer, specPath, aPath, bPath string) int {
	sp, err := loadSpec(specPath)
	if err == nil {
		err = sp.validate()
	}
	var a, b *resultFile
	if err == nil {
		a, err = loadResult(aPath)
	}
	if err == nil {
		b, err = loadResult(bPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if a.Trace || b.Trace {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes untraced results; the bounds are on the end-to-end metrics")
		return 1
	}
	code := 0
	for _, f := range []*resultFile{a, b} {
		for _, m := range sp.covers(f) {
			fmt.Fprintf(out, "MISSING %s\n", m)
			code = 1
		}
	}
	if code != 0 {
		return code
	}
	find := func(f *resultFile, name string) *workloadResult {
		for _, w := range f.Workloads {
			if w.Name == name {
				return w
			}
		}
		return nil
	}
	fmt.Fprintf(out, "%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, w := range sp.Workloads {
		ra, rb := find(a, w.Name), find(b, w.Name)
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(out, "%-16s failed operations: a %d, b %d  OUTSIDE\n", w.Name, ra.Failed, rb.Failed)
			code = 1
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			apart := (vb - va) / math.Min(va, vb)
			if m.Better == "higher" {
				apart = -apart
			}
			verdict := ""
			if !(va > 0 && vb > 0) || math.Abs(apart) > *m.Bound {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Fprintf(out, "%-16s %-24s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				w.Name, m.Name, va, vb, 100*apart, 100**m.Bound, verdict)
		}
	}
	return code
}
