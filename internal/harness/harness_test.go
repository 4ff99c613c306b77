package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"varsim/internal/report"
)

func quickH(buf *bytes.Buffer) *H {
	return New(Options{Out: buf, Seed: 0xA1A3, Quick: true})
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %s", e.Name)
		}
		seen[e.Name] = true
		if _, ok := Find(e.Name); !ok {
			t.Fatalf("Find(%s) failed", e.Name)
		}
	}
	if _, ok := Find("bogus"); ok {
		t.Fatal("Find accepted a bogus name")
	}
}

func TestNewRequiresOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Options{})
}

// The per-experiment smoke tests run each quick experiment end to end
// and check that the expected table headers appear. Together they
// exercise the entire reproduction pipeline.

// quickOutputSHA256 pins the SHA-256 of each quick experiment's output
// at seed 0xA1A3: a cross-commit behaviour oracle, so an optimisation
// that changes any simulated number fails here even though every
// within-build byte-identity test still passes. A change that means to
// alter behaviour regenerates the table from the hashes the failures
// print, and says so in its change record.
var quickOutputSHA256 = map[string]string{
	"fig1":         "d3c1d2c2e698c96fc2506fcb51e4000c0995aa6b352a349207fb783fbf4a815f",
	"divergence":   "51b3e58de10a0a108ef93bfb56181cb728b3c6a212f23d8640931313c94679b9",
	"fig4":         "91c122cd4b94cbd7b275d81fb5e30db639bddb7c8f6f7fe61bc34db01bf1a514",
	"fig10":        "e301c5c3d9bb37ee954984c597040a440777bc5821f0011a29b5b70c52794e55",
	"fig11":        "5ae623c206ea5b26ff3c02e69c5ee3b1fccd8605fc8c0cbd07aa13e83346ccb8",
	"table5":       "3236807efcbc48a9c87778003041a976282c04f109063d08805dd90938a506de",
	"table1":       "9edfaa003cee877c3777408bb021a36ff47c8c741b40a59c8506815e664b563f",
	"table4":       "23c2de24a397db87214e27ba52225078e0120f0f7cf731e299cb95a1bc0b95fc",
	"fig2":         "a92a9d425e92e7b21685e8a8c7a4c600fa30fe7aaf60f382704b347e5e574841",
	"fig3":         "bd431d49b615fecf1ad1eb0a5d7d1bdc847f10d197b010776f6186c9a04bb261",
	"fig8":         "8f11cce19e56cd638e3e2f9b3e84d23c1279bf9db9663c20e3ea3e0990319350",
	"perturb":      "e5be0a91e53780df7c3870cfbc8ce753e94b0ef4d12dbeda34b7b0b4728d2b85",
	"table3":       "00bdf7b5d1c41cd5f2b83358ea121513a60218ae9d8747c6264ef35b401f1918",
	"ablations":    "f8cbb19fe0c6bb1f58372d39364285b0b2e01296a65b6f7755080c23dd1a6d82",
	"characterize": "ba68897424405cf6d5f0bcea5edd1545e51d86580bdfed9c261e2f32db827b5f",
	"sampling":     "2debf20e8124e79c7b474173a8e4159cf5c7dbcd0c01495015655b72f2abf064",
	"table2":       "1d52ccb2018c9cda30396f0918b4155109ecd5f41cc65a3d0c28bf7218f2bdfa",
	"fig9":         "d5a7adac4de858c667374f29797b15deeefe35e97aaebb8a8dad0185efddb4d8",
	"anova":        "eacfe3b0965b250b96daee13c91f4bb09392f76dd57ac5484416bf55703e9eda",
}

// checkOutputHash compares out against the pinned hash for experiment
// name, printing the new hash on a mismatch.
func checkOutputHash(t *testing.T, name, out string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	if want, ok := quickOutputSHA256[name]; !ok {
		t.Errorf("%s: no pinned output hash; add %q: %q", name, name, got)
	} else if got != want {
		t.Errorf("%s: output hash %s, pinned %s", name, got, want)
	}
}

func runQuick(t *testing.T, name string, wantSubstrings ...string) {
	t.Helper()
	var buf bytes.Buffer
	h := quickH(&buf)
	e, ok := Find(name)
	if !ok {
		t.Fatalf("experiment %s not found", name)
	}
	if err := h.RunOne(e); err != nil {
		t.Fatalf("%s failed: %v\noutput so far:\n%s", name, err, buf.String())
	}
	out := buf.String()
	checkOutputHash(t, name, out)
	for _, want := range wantSubstrings {
		if !strings.Contains(out, want) {
			t.Errorf("%s output missing %q:\n%s", name, want, out)
		}
	}
}

func TestFig1(t *testing.T) { runQuick(t, "fig1", "scheduling events", "diverg") }
func TestDivergenceStudy(t *testing.T) {
	runQuick(t, "divergence", "first forks", "divergence attribution", "metric deltas")
}
func TestFig4(t *testing.T)  { runQuick(t, "fig4", "DRAM latency", "inversions") }
func TestFig10(t *testing.T) { runQuick(t, "fig10", "sample size", "95% CI") }
func TestFig11(t *testing.T) { runQuick(t, "fig11", "test statistic", "rejection region") }

// TestTable5 checks the paper's Table-5 claim on the projected column:
// the runs needed grow strictly as the significance level tightens. It
// also pins the quick-seed projections, so any change to how
// stats.MinRunsProjected finds them must reproduce them exactly.
func TestTable5(t *testing.T) {
	var buf bytes.Buffer
	collector := report.NewCollector()
	h := New(Options{Out: &buf, Seed: 0xA1A3, Quick: true, Report: collector})
	e, _ := Find("table5")
	if err := h.RunOne(e); err != nil {
		t.Fatalf("table5 failed: %v\noutput so far:\n%s", err, buf.String())
	}
	checkOutputHash(t, "table5", buf.String())
	tables := collector.Tables()
	if len(tables) != 1 {
		t.Fatalf("table5 printed %d tables, want 1", len(tables))
	}
	tab := tables[0]
	col := len(tab.Columns) - 1
	if tab.Columns[col] != "runs needed (projected)" {
		t.Fatalf("last column is %q, want the projected runs", tab.Columns[col])
	}
	want := []int{27343, 45043, 63953, 90098, 110459} // alpha 10%, 5%, 2.5%, 1%, 0.5%
	if len(tab.Rows) != len(want) {
		t.Fatalf("table5 has %d rows, want %d:\n%s", len(tab.Rows), len(want), buf.String())
	}
	prev := 0
	for i, row := range tab.Rows {
		n, err := strconv.Atoi(row[col])
		if err != nil {
			t.Fatalf("row %s: projected %q is not a run count", row[0], row[col])
		}
		if n <= prev {
			t.Errorf("row %s: projected %d runs, not more than the looser level's %d", row[0], n, prev)
		}
		if n != want[i] {
			t.Errorf("row %s: projected %d runs, want %d", row[0], n, want[i])
		}
		prev = n
	}
}

func TestTable1(t *testing.T) {
	runQuick(t, "table1", "WCR", "superior config", "1-way", "4-way")
}

func TestTable2SharesCache(t *testing.T) {
	var buf bytes.Buffer
	h := quickH(&buf)
	e, _ := Find("table2")
	if err := h.RunOne(e); err != nil {
		t.Fatal(err)
	}
	checkOutputHash(t, "table2", buf.String())
	if len(h.robSpacesCache) != 3 {
		t.Fatalf("rob spaces not cached: %d", len(h.robSpacesCache))
	}
	// fig10 must reuse them without re-simulating (cheap, same data).
	before := h.robSpacesCache[32].Values[0]
	e10, _ := Find("fig10")
	if err := h.RunOne(e10); err != nil {
		t.Fatal(err)
	}
	if h.robSpacesCache[32].Values[0] != before {
		t.Fatal("cache was invalidated between experiments")
	}
}

func TestTable4Trend(t *testing.T) {
	runQuick(t, "table4", "coeff of variation", "range of variability")
}

func TestFig2And3(t *testing.T) {
	runQuick(t, "fig2", "interval", "CoV")
	runQuick(t, "fig3", "interval#", "sigma")
}

func TestFig8(t *testing.T) { runQuick(t, "fig8", "txn window", "window means vary") }

func TestFig9AndANOVA(t *testing.T) {
	var buf bytes.Buffer
	h := quickH(&buf)
	e9, _ := Find("fig9")
	if err := h.RunOne(e9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "between-checkpoint spread") {
		t.Fatalf("fig9 output wrong:\n%s", buf.String())
	}
	checkOutputHash(t, "fig9", buf.String())
	buf.Reset()
	ea, _ := Find("anova")
	if err := h.RunOne(ea); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkOutputHash(t, "anova", out)
	if !strings.Contains(out, "oltp") || !strings.Contains(out, "specjbb") || !strings.Contains(out, "F(") {
		t.Fatalf("anova output wrong:\n%s", out)
	}
}

func TestPerturbExperiment(t *testing.T) {
	runQuick(t, "perturb", "0-1 ns", "0-4 ns")
}

func TestTable3(t *testing.T) {
	runQuick(t, "table3", "barnes", "slashcode", "coeff of variation")
}

func TestIntervalCPT(t *testing.T) {
	// 3 txns in [0,10), 1 in [10,20), 0 in [20,30).
	times := []int64{1, 5, 9, 12}
	got := intervalCPT(times, 0, 30, 10)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0] != 10.0/3 || got[1] != 10.0 {
		t.Fatalf("got %v", got)
	}
	if intervalCPT(times, 0, 30, 0) != nil {
		t.Fatal("zero interval should give nil")
	}
	if intervalCPT(nil, 0, 30, 10) != nil {
		t.Fatal("no txns should give nil")
	}
}

func TestAblations(t *testing.T) {
	runQuick(t, "ablations",
		"perturbation site", "MESI", "snoop occupancy",
		"systematic", "random", "Jarque-Bera", "bootstrap")
}

func TestCharacterize(t *testing.T) {
	runQuick(t, "characterize", "workload", "instr/txn", "slashcode", "barnes")
}

func TestSamplingStudy(t *testing.T) {
	runQuick(t, "sampling",
		"adaptive sampling", "Table 3 benchmarks", "associativity matrix",
		"stratified time sampling", "runs saved")
}
