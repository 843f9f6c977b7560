package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test holds the program to.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// toyConfig runs every workload at toy scale against binaries built
// from the checkout.
func toyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		bin: buildPrograms(t), work: t.TempDir(),
		genScale: 400, charScale: 400, days: 3, conns: 2,
	}
}

var builtBin string

func buildPrograms(t *testing.T) string {
	t.Helper()
	if builtBin != "" {
		return builtBin
	}
	dir, err := os.MkdirTemp("", "lsmbench-bin")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/lsmgen", "./cmd/lsmcal", "./cmd/lsmserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	builtBin = dir
	return dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(builtBin)
	}
	os.Exit(code)
}

// TestEveryMetricPrintsWithItsUnit runs each workload of BENCHMARK.json
// untraced and traced, and requires exactly the metrics it lists, with
// their units, and a correct result.
func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := execute(toyConfig(t, w.Name, traced), workloads[w.Name])
			if err != nil || !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: err %v, result %+v", w.Name, traced, err, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongDigestFailsTheRun plants a wrong recorded digest for the toy
// generate run and expects the run to be reported incorrect.
func TestWrongDigestFailsTheRun(t *testing.T) {
	cfg := toyConfig(t, "generate", false)
	key := runKey{cfg.genScale, cfg.days, cfg.seed}
	genDigests[key] = "00000000000000000000000000000000"
	defer delete(genDigests, key)
	res, err := execute(cfg, runGenerate)
	if !errors.Is(err, errCheck) || res == nil || res.Correct {
		t.Fatalf("wrong digest: err %v, result %+v; want a failed output check", err, res)
	}
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		fail bool
	}{
		{"matching digest", checkDigest("x", "abc", "abc"), false},
		{"wrong digest", checkDigest("x", "abc", "abd"), true},
		{"counts agree", checkParseCounts(103, 2, 100, 3, 2), false},
		{"lost entry", checkParseCounts(102, 2, 100, 3, 2), true},
		{"extra entry", checkParseCounts(104, 2, 100, 3, 2), true},
		{"malformed line parsed", checkParseCounts(103, 1, 100, 3, 2), true},
		{"log matches", checkLiveLog([]tag{{1, 0}, {1, 1}, {2, 0}}, []tag{{2, 0}, {1, 0}, {1, 1}}, 3), false},
		{"missing tag", checkLiveLog([]tag{{1, 0}, {2, 0}}, []tag{{1, 0}, {1, 1}, {2, 0}}, 3), true},
		{"wrong tag", checkLiveLog([]tag{{1, 0}, {1, 2}, {2, 0}}, []tag{{1, 0}, {1, 1}, {2, 0}}, 3), true},
		{"duplicate tag", checkLiveLog([]tag{{1, 0}, {1, 0}, {2, 0}}, []tag{{1, 0}, {2, 0}}, 2), true},
		{"extra logged tag", checkLiveLog([]tag{{1, 0}, {2, 0}, {3, 0}}, []tag{{1, 0}, {2, 0}}, 2), true},
		{"served count off", checkLiveLog([]tag{{1, 0}, {2, 0}}, []tag{{1, 0}, {2, 0}}, 3), true},
	} {
		if failed := tc.err != nil; failed != tc.fail {
			t.Errorf("%s: err %v, want failure %v", tc.name, tc.err, tc.fail)
		}
		if tc.err != nil && !errors.Is(tc.err, errCheck) {
			t.Errorf("%s: %v is not an output-check failure", tc.name, tc.err)
		}
	}
}

func TestSpecDigestIgnoresLayout(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, _ := specDigest(write("a.json", `{"b": 1.50, "a": [1, 2]}`))
	b, _ := specDigest(write("b.json", "{\n  \"a\": [1,2],\n  \"b\": 1.50\n}\n"))
	c, _ := specDigest(write("c.json", `{"a": [1, 2], "b": 1.25}`))
	if a == "" || a != b {
		t.Errorf("layout changed the digest: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("a changed number kept the digest %s", a)
	}
}
