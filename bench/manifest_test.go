package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// manifest mirrors BENCHMARK.json, the contract the driver checks the
// benchmark against.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf decodes a JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wantKeys(t *testing.T, what string, raw json.RawMessage, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := keysOf(t, raw); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

// TestManifestMeetsContract checks BENCHMARK.json against every rule of
// the driver's manifest contract. A manifest outside any of them is
// refused before a single run.
func TestManifestMeetsContract(t *testing.T) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(data))
	}
	wantKeys(t, "manifest", data, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	var raw struct {
		Command    []string          `json:"command"`
		Paths      []string          `json:"paths"`
		RunSeconds json.Number       `json:"run_seconds"`
		Workloads  []json.RawMessage `json:"workloads"`
		EndToEnd   []json.RawMessage `json:"end_to_end"`
		PerLayer   []json.RawMessage `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}

	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1 to 16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains("/"+p+"/", "/../") {
			t.Errorf("path %q is not a relative path of letters, digits, _ . - and /", p)
		}
		err := filepath.WalkDir(filepath.Join("..", p), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if path == filepath.Join("..", p, "out") {
				return filepath.SkipDir // run output, ignored by git
			}
			if !d.IsDir() && !d.Type().IsRegular() {
				t.Errorf("%s is not a regular file", path)
			}
			return nil
		})
		if err != nil {
			t.Errorf("path %q: %v", p, err)
		}
	}

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1 to 32", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains("/"+arg+"/", "/../") {
			t.Errorf("command string %q is too long, absolute or leaves the repository", arg)
		}
		if _, err := os.Lstat(filepath.Join("..", arg)); err != nil {
			continue // not a file of the repository: a program name or a flag
		}
		inside := false
		for _, p := range m.Paths {
			inside = inside || strings.HasPrefix(filepath.Clean(arg)+"/", filepath.Clean(p)+"/")
		}
		if !inside {
			t.Errorf("command names %q, a file of the repository outside paths %v", arg, m.Paths)
		}
	}

	secs, err := raw.RunSeconds.Int64()
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("run_seconds %v is not a whole number from 1 to 60", raw.RunSeconds)
	}
	// The driver makes 4 + 22 runs per workload, which with set-up and
	// two builds must end within 3420 s; a run adds about 4 s of build
	// check, set-up, warm-up and tear-down to its window, a build 120 s.
	if total := int64(4+22*len(m.Workloads))*(secs+4) + 2*120; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over 3420 s", total)
	}

	used := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q: want a letter or digit, then at most 63 letters, digits, _ . -", kind, name)
		}
		if used[name] {
			t.Errorf("name %q is used more than once", name)
		}
		used[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for i, w := range m.Workloads {
		wantKeys(t, "workload "+w.Name, raw.Workloads[i], "name", "why")
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	checkMetric := func(kind string, mt metric) {
		checkName(kind, mt.Name)
		if !unitRE.MatchString(mt.Unit) {
			t.Errorf("%s %s: unit %q", kind, mt.Name, mt.Unit)
		}
		if mt.Better != "lower" && mt.Better != "higher" {
			t.Errorf("%s %s: better %q", kind, mt.Name, mt.Better)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for i, mt := range m.EndToEnd {
		wantKeys(t, "end-to-end metric "+mt.Name, raw.EndToEnd[i], "name", "unit", "better", "bound")
		checkMetric("end-to-end metric", mt)
		if mt.Bound <= 0 || mt.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is not in (0, 0.25]", mt.Name, mt.Bound)
		}
		if mt.Name == "setup_s" {
			setup = mt.Unit == "s" && mt.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for i, mt := range m.PerLayer {
		wantKeys(t, "per-layer metric "+mt.Name, raw.PerLayer[i], "name", "unit", "better")
		checkMetric("per-layer metric", mt)
	}
}

// TestManifestMatchesRunner holds the manifest and the program to each
// other and to the issue that fixed the names: six workloads, the
// end-to-end metrics (fail_ratio travels as failed/attempted, see
// endToEndMetrics), and exactly the metrics the runner can emit.
func TestManifestMatchesRunner(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if got := strings.Join(names, " "); got != "rpc-small rpc-large portal-multicall tls-reconnect state-churn job-push" {
		t.Errorf("workload table is %q", got)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, the runner has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q, the runner %q", i, m.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, declared, emitted []metric) {
		if len(declared) != len(emitted) {
			t.Errorf("manifest declares %d %s metrics, the runner emits %d", len(declared), kind, len(emitted))
			return
		}
		for i := range emitted {
			if declared[i] != emitted[i] {
				t.Errorf("%s metric %d: manifest has %+v, the runner %+v", kind, i, declared[i], emitted[i])
			}
		}
	}
	same("end-to-end", m.EndToEnd, endToEndMetrics)
	same("per-layer", m.PerLayer, perLayerMetrics)
	if len(endToEndMetrics) != 5 || len(perLayerMetrics) != 59 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 5 and 59", len(endToEndMetrics), len(perLayerMetrics))
	}
	if _, err := os.Stat("../" + m.Command[len(m.Command)-1]); err != nil {
		t.Errorf("command %v: %v", m.Command, err)
	}
}
