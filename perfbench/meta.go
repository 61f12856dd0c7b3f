package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runMeta identifies the set-up a run was measured on, so runs from
// mismatched machines or configurations can be told apart.
type runMeta struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NumCPU      int    `json:"numcpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"revision"`
	Sources     string `json:"source_digest"`
	DataDirFS   string `json:"data_dir_fs"`
	Clients     int    `json:"clients"`
	WorkerSlots int    `json:"worker_slots"`
}

func newMeta(w workloadSpec, seed int64, seconds int, trace bool) runMeta {
	m := runMeta{
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Sources:    sourceDigest(repoRoot()),
		DataDirFS:  "-",
		Clients:    1,
	}
	// Untraced pipeline runs call the library from clientCount()
	// streams; traced runs decompose programs one at a time, then drive
	// the job path with clientCount() clients where they trace it.
	if !trace || w.traceJobPath {
		m.Clients = clientCount()
	}
	if w.jobs {
		m.WorkerSlots = clientCount()
	}
	return m
}

// clientCount bounds client goroutines, connections and worker slots
// of the job workloads, and the streams of the pipeline workloads: one
// per CPU, at most two.
func clientCount() int { return max(1, min(2, runtime.NumCPU())) }

// revision is the VCS revision stamped into the binary, or "unknown"
// when it was built outside a git checkout.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// repoRoot is the repository root: the working directory when the
// benchmark runs from the checkout root, its parent when its tests run.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// sourceDigest fingerprints every .go file and go.mod under root, so
// runs of different code can be told apart where no VCS revision is
// stamped into the binary.  Dot directories (build outputs) are
// skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod"):
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x9123683E: "btrfs",
		0x58465342: "xfs", 0x794C7630: "overlayfs", 0x2FC12FC1: "zfs",
		0x65735546: "fuse", 0x6969: "nfs", 0x858458F6: "ramfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// cpuTimes reads the machine's aggregate CPU time counters from
// /proc/stat (user through steal, in clock ticks).
func cpuTimes() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, 8)
	for i := range out {
		out[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return out
}

// stealFrac is the share of the machine's CPU time the hypervisor gave
// to other guests between two cpuTimes readings: a run measured while
// it was high was slowed by its neighbours, not by the code.
func stealFrac(before, after []uint64) float64 {
	if len(before) != 8 || len(after) != 8 {
		return -1
	}
	var total uint64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	return float64(after[7]-before[7]) / float64(total)
}

// processCPU is the CPU time all the process's threads have used, the
// garbage collector's included.  Unlike wall time it does not grow
// while the hypervisor runs other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the resident-set high-water mark, so the next
// peakRSSMiB covers only what ran since.  It reports whether the
// kernel accepted the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
