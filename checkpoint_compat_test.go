package polyprof_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"polyprof"
)

// TestRestoreStringKeyedCheckpoint resumes mid-run streaming
// checkpoints that the string-keyed context implementation wrote (IIV
// vector and schedule tree, translator, VM and dependence-builder
// state, all naming contexts by their rendered keys).  Context IDs are
// per-run and never serialized, so a resumed run rebuilds them from
// those keys and must finish byte-identical to a buffered run.
func TestRestoreStringKeyedCheckpoint(t *testing.T) {
	for _, name := range []string{"example1", "example2"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile("testdata/checkpoint_" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			ck, err := polyprof.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Events == 0 || ck.DDG == nil || len(ck.Tree.Root.Children) == 0 {
				t.Fatalf("fixture is not a mid-run checkpoint with tree and dependence state")
			}
			prog, err := polyprof.Workload(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
				// The epoch size the fixture was captured with: a quarter
				// of the run, so the resumed attempt crosses one more
				// boundary.
				EpochEvents: ck.Events / ck.Epoch,
				Resume:      ck,
			})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			cm := polyprof.DefaultCostModel()
			got, err := rep.JSON(&cm)
			if err != nil {
				t.Fatal(err)
			}
			if want := reportJSON(t, name, 0); !bytes.Equal(want, got) {
				t.Fatalf("resumed report differs from a buffered run (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
