package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// captureReference profiles every program of every workload through
// the library and writes their report digests (and optimize-report
// digests) to reference.json in the benchmark's directory.  It refuses
// to write when the buffered and optimize paths disagree on a report,
// and warns about every program whose Table 5 columns differ from
// table5.txt.
func captureReference(file string) error {
	if repoRoot() == "." {
		file = filepath.Join("perfbench", file)
	}
	t5, err := loadTable5(findRepoFile("table5.txt"))
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range workloadSpecs {
		for _, n := range w.programs {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	ref := reference{Programs: map[string]refEntry{}}
	ctx := context.Background()
	sets, _, err := buildPrograms(names, 1)
	if err != nil {
		return err
	}
	progs := sets[0]
	for _, n := range names {
		rep, _, err := pipelineCall(ctx, progs[n], false)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		data, err := reportJSON(rep)
		if err != nil {
			return err
		}
		d, err := digest(data)
		if err != nil {
			return err
		}
		if row, ok := t5[n]; ok {
			if err := checkTable5(n, row, data); err != nil {
				fmt.Fprintln(os.Stderr, "warning: table5.txt disagrees:", err)
			}
		}
		orep, opt, err := pipelineCall(ctx, progs[n], true)
		if err != nil {
			return fmt.Errorf("%s: optimize: %w", n, err)
		}
		odata, err := reportJSON(orep)
		if err != nil {
			return err
		}
		if od, err := digest(odata); err != nil || od != d {
			return fmt.Errorf("%s: OptimizeWith's report differs from ProfileWith's", n)
		}
		optData, err := json.Marshal(opt)
		if err != nil {
			return err
		}
		od, err := digest(optData)
		if err != nil {
			return err
		}
		ref.Programs[n] = refEntry{Report: d, Ops: rep.Profile.DDG.TotalOps, Optimize: od}
		fmt.Fprintf(os.Stderr, "%-16s %s ops=%d optimize=%.12s\n", n, d[:12], rep.Profile.DDG.TotalOps, od)
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}
