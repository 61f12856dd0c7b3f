package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"polyprof"
)

// reference.json holds, per program, the digest of its deterministic
// report content (and, for optimize-affine programs, of its optimize
// report) as the library produced them when the benchmark was
// defined.  Regenerate with `perfbench --capture`.
//
//go:embed reference.json
var referenceJSON []byte

type refEntry struct {
	Report   string `json:"report"`
	Ops      uint64 `json:"ops"`
	Optimize string `json:"optimize,omitempty"`
}

type reference struct {
	Programs map[string]refEntry `json:"programs"`
}

// checker validates every operation's output against the reference
// digests.  It also cross-checks the first report of each program
// listed in the committed table5.txt against its Table 5 columns; a
// disagreement is recorded as a discrepancy of the capture, not as a
// failed operation, because the report itself matched its reference.
type checker struct {
	ref    reference
	table5 map[string][]string

	mu        sync.Mutex
	crossed   map[string]bool
	table5Off map[string]string // program -> first differing column
}

func newChecker(table5Path string) (*checker, error) {
	c := &checker{crossed: map[string]bool{}, table5Off: map[string]string{}}
	if err := json.Unmarshal(referenceJSON, &c.ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	t5, err := loadTable5(table5Path)
	if err != nil {
		return nil, err
	}
	c.table5 = t5
	return c, nil
}

// digest is the SHA-256 of the compacted JSON, so a report re-indented
// by the daemon's response encoder digests like the library's own.
func digest(data []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return "", fmt.Errorf("report is not JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// reportJSON renders a library report exactly as a daemon job does.
func reportJSON(rep *polyprof.Report) ([]byte, error) {
	cm := polyprof.DefaultCostModel()
	return rep.JSONWith(&cm, nil)
}

// checkReport verifies one program's report bytes (library or daemon)
// and returns its dynamic instruction count.
func (c *checker) checkReport(prog string, data []byte) (uint64, error) {
	want, ok := c.ref.Programs[prog]
	if !ok {
		return 0, fmt.Errorf("%s: no reference digest", prog)
	}
	got, err := digest(data)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", prog, err)
	}
	if got != want.Report {
		return 0, fmt.Errorf("%s: report digest %s differs from reference %s", prog, got[:12], want.Report[:12])
	}
	c.crossCheck(prog, data)
	return want.Ops, nil
}

func (c *checker) crossCheck(prog string, data []byte) {
	row, ok := c.table5[prog]
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crossed[prog] {
		return
	}
	c.crossed[prog] = true
	if err := checkTable5(prog, row, data); err != nil {
		c.table5Off[prog] = err.Error()
	}
}

// table5Report lists the programs cross-checked against table5.txt and
// the discrepancies found.
func (c *checker) table5Report() (checked []string, off map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.crossed {
		checked = append(checked, p)
	}
	sort.Strings(checked)
	return checked, c.table5Off
}

// checkOptimize verifies an optimize report: its digest matches the
// reference and every applied variant passed the output oracle.
func (c *checker) checkOptimize(prog string, opt *polyprof.OptimizeReport) error {
	for _, cand := range opt.Candidates {
		for _, v := range cand.Variants {
			if v.Applied && !v.Verified {
				return fmt.Errorf("%s: applied %s variant of %s is not verified", prog, v.Kind, cand.Nest)
			}
		}
	}
	data, err := json.Marshal(opt)
	if err != nil {
		return err
	}
	got, err := digest(data)
	if err != nil {
		return err
	}
	if want := c.ref.Programs[prog].Optimize; got != want {
		return fmt.Errorf("%s: optimize digest %.12s differs from reference %.12s", prog, got, want)
	}
	return nil
}

// findRepoFile is the path of a repository file from the working
// directory.
func findRepoFile(name string) string { return filepath.Join(repoRoot(), name) }

// loadTable5 parses the Experiment I table of table5.txt into
// whitespace-separated columns keyed by benchmark name.
func loadTable5(path string) (map[string][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading Table 5 capture: %w", err)
	}
	rows := map[string][]string{}
	in := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) > 1 && f[0] == "benchmark" && f[1] == "#Ops":
			in = true
		case in && len(f) == 0:
			return rows, nil
		case in && len(f) >= 22:
			rows[f[0]] = f
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no Table 5 rows", path)
	}
	return rows, sc.Err()
}

// checkTable5 compares the report's Table 5 columns with the committed
// capture.  %Mops, %FPops and the Polly column are not in the report
// and are skipped.
func checkTable5(prog string, row []string, data []byte) error {
	var r struct {
		TotalOps  uint64  `json:"total_ops"`
		MemOps    uint64  `json:"mem_ops"`
		PctAffine float64 `json:"pct_affine"`
		Region    *struct {
			CodeRef         string  `json:"code_ref"`
			PctOps          float64 `json:"pct_ops"`
			Interprocedural bool    `json:"interprocedural"`
			Components      int     `json:"components"`
			FusedComponents int     `json:"fused_components"`
			Fusion          string  `json:"fusion"`
			Metrics         struct {
				PctParallelOps float64 `json:"pct_parallel_ops"`
				PctSIMDOps     float64 `json:"pct_simd_ops"`
				PctReuse       float64 `json:"pct_reuse"`
				PctPReuse      float64 `json:"pct_preuse"`
				LoopDepthSrc   int     `json:"loop_depth_src"`
				LoopDepthBin   int     `json:"loop_depth_bin"`
				TileDepth      int     `json:"tile_depth"`
				PctTileOps     float64 `json:"pct_tile_ops"`
				Skew           bool    `json:"skew"`
			} `json:"metrics"`
		} `json:"region"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("%s: %w", prog, err)
	}
	if r.Region == nil {
		return fmt.Errorf("%s: report has no region but Table 5 lists one", prog)
	}
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
	yn := func(b bool) string {
		if b {
			return "Y"
		}
		return "N"
	}
	m := r.Region.Metrics
	// Column index -> value from the report, in table5.txt's layout.
	cols := map[int]string{
		1: fmt.Sprint(r.TotalOps), 2: fmt.Sprint(r.MemOps), 3: pct(r.PctAffine),
		4: r.Region.CodeRef, 5: pct(r.Region.PctOps), 8: yn(r.Region.Interprocedural),
		10: yn(m.Skew), 11: pct(m.PctParallelOps), 12: pct(m.PctSIMDOps),
		13: pct(m.PctReuse), 14: pct(m.PctPReuse),
		15: fmt.Sprintf("%dD", m.LoopDepthSrc), 16: fmt.Sprintf("%dD", m.LoopDepthBin),
		17: fmt.Sprintf("%dD", m.TileDepth), 18: pct(m.PctTileOps),
		19: fmt.Sprint(r.Region.Components), 20: fmt.Sprint(r.Region.FusedComponents),
		21: r.Region.Fusion,
	}
	for i := 1; i < len(row); i++ {
		if want, ok := cols[i]; ok && row[i] != want {
			return fmt.Errorf("%s: Table 5 column %d is %q in table5.txt but %q in the report", prog, i, row[i], want)
		}
	}
	return nil
}
