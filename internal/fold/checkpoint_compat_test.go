package fold

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestRestoreRationalCheckpoint resumes a folder from a checkpoint the
// big.Rat fitter wrote (basis rows with "num/den" entries such as
// "3/2") and checks that it finishes exactly like an uninterrupted
// fold: same fitter solutions, same piece, and the same state the
// integer fitter itself would have checkpointed at that cut.
func TestRestoreRationalCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/rational_folder_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx struct {
		Points [][2][]int64 `json:"points"`
		Cut    int          `json:"cut"`
		State  FolderState  `json:"state"`
		Want   string       `json:"want"`
	}
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatal(err)
	}

	resumed, err := RestoreFolder(fx.State)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewFolder(fx.State.Dim, fx.State.LabelW)
	for _, p := range fx.Points[:fx.Cut] {
		ref.Add(p[0], p[1])
	}
	if got, want := resumed.State(), ref.State(); !reflect.DeepEqual(got, want) {
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		t.Errorf("restored state differs from the integer fitter's own:\n got %s\nwant %s", gb, wb)
	}
	for _, p := range fx.Points[fx.Cut:] {
		resumed.Add(p[0], p[1])
		ref.Add(p[0], p[1])
	}
	for i := range ref.labelFit {
		ge, gok := resumed.labelFit[i].Solve()
		we, wok := ref.labelFit[i].Solve()
		if !sameSolve(ge, gok, we, wok) {
			t.Errorf("label %d: resumed Solve = %v,%v, uninterrupted %v,%v", i, ge, gok, we, wok)
		}
	}
	got, want := pieceKey(resumed.Finish()), pieceKey(ref.Finish())
	if got != want {
		t.Errorf("resumed Finish = %s\nuninterrupted    %s", got, want)
	}
	if got != fx.Want {
		t.Errorf("resumed Finish = %s\nrational fitter  %s", got, fx.Want)
	}
}

// TestRestoreFitterRejectsMalformed: checkpoint rows come from the WAL,
// so a corrupt state is an error, never a panic or a silently wrong
// basis.
func TestRestoreFitterRejectsMalformed(t *testing.T) {
	row := func(v ...string) []string { return v }
	for name, s := range map[string]FitterState{
		"bad number":      {M: 1, Rows: [][]string{row("1", "x", "2")}, Pivot: []int{1}},
		"zero den":        {M: 1, Rows: [][]string{row("1", "1/0", "2")}, Pivot: []int{1}},
		"negative den":    {M: 1, Rows: [][]string{row("1", "1/-2", "2")}, Pivot: []int{1}},
		"short row":       {M: 1, Rows: [][]string{row("1", "2")}, Pivot: []int{1}},
		"pivot range":     {M: 1, Rows: [][]string{row("1", "1", "2")}, Pivot: []int{2}},
		"zero pivot":      {M: 1, Rows: [][]string{row("1", "0", "2")}, Pivot: []int{1}},
		"too many rows":   {M: 1, Rows: [][]string{row("0", "1", "2"), row("1", "0", "2")}, Pivot: []int{1, 0}},
		"pivots mismatch": {M: 2, Rows: [][]string{row("0", "0", "1", "2")}, Pivot: []int{2, 0}},
		"not reduced":     {M: 2, Rows: [][]string{row("0", "1", "1", "3"), row("1", "0", "1", "2")}, Pivot: []int{2, 0}},
		"repeated pivot":  {M: 2, Rows: [][]string{row("0", "1", "0", "3"), row("1", "2", "0", "2")}, Pivot: []int{1, 1}},
	} {
		if _, err := RestoreFitter(s); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}
