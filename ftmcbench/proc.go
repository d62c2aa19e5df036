package main

import (
	"bytes"
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obsv"
)

// provenance is what a run records about the code and host it measured.
// A run is eligible as a baseline only when the benchmark binary carries
// a VCS stamp of a clean tree.
type provenance struct {
	Bench            obsv.Manifest `json:"bench"`
	GitRev           string        `json:"git_rev"`
	GitDirty         bool          `json:"git_dirty"`
	BaselineEligible bool          `json:"baseline_eligible"`
	Eligibility      string        `json:"eligibility"`
	Processes        []procInfo    `json:"processes"`
}

// procInfo records one process the benchmark started (or, for the
// in-process workloads, the benchmark process itself).
type procInfo struct {
	Role        string `json:"role"`
	Binary      string `json:"binary,omitempty"`
	FTMCWorkers string `json:"ftmc_workers"`
	GOMAXPROCS  string `json:"gomaxprocs"`
	GitRev      string `json:"git_rev,omitempty"`
	GitDirty    bool   `json:"git_dirty,omitempty"`
}

func newProvenance(seed int64) provenance {
	m := obsv.NewManifest()
	m.Seed = seed
	p := provenance{Bench: m, GitRev: m.GitRev, GitDirty: m.GitDirty}
	switch {
	case m.GitRev == "":
		p.Eligibility = "no VCS stamp: built outside a git checkout"
	case m.GitDirty:
		p.Eligibility = "dirty tree: never a baseline"
	default:
		p.BaselineEligible = true
		p.Eligibility = "clean tree"
	}
	return p
}

// addProcess records a started process once per role.
func (p *provenance) addProcess(pi procInfo) {
	for _, q := range p.Processes {
		if q.Role == pi.Role {
			return
		}
	}
	if pi.GOMAXPROCS == "" {
		pi.GOMAXPROCS = "unset (NumCPU)"
	}
	if pi.Binary != "" {
		if bi, err := buildinfo.ReadFile(pi.Binary); err == nil {
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					pi.GitRev = s.Value
				case "vcs.modified":
					pi.GitDirty = s.Value == "true"
				}
			}
		}
	}
	p.Processes = append(p.Processes, pi)
}

// command builds an exec.Cmd for one of the driven binaries with
// FTMC_WORKERS pinned, and records it in the provenance.
func (r *run) command(role, name, workers string, args ...string) *exec.Cmd {
	bin := filepath.Join(r.bin, name)
	cmd := exec.Command(bin, args...)
	env := make([]string, 0, len(os.Environ())+1)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "FTMC_WORKERS=") {
			env = append(env, kv)
		}
	}
	cmd.Env = append(env, "FTMC_WORKERS="+workers)
	cmd.Stderr = r.log
	// A child never outlives the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r.prov.addProcess(procInfo{Role: role, Binary: bin, FTMCWorkers: workers, GOMAXPROCS: os.Getenv("GOMAXPROCS")})
	return cmd
}

// pinSelf pins the benchmark process's own pool width, for the workloads
// that run the program in-process.
func (r *run) pinSelf(role, workers string) {
	os.Setenv("FTMC_WORKERS", workers)
	r.prov.Bench.FTMCWorkers = workers
	r.prov.addProcess(procInfo{Role: role, FTMCWorkers: workers, GOMAXPROCS: os.Getenv("GOMAXPROCS")})
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a live process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// selfCPU returns the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// exitedUsage returns the CPU time and peak RSS (MB) of a reaped child.
func exitedUsage(ps *os.ProcessState) (time.Duration, float64) {
	if ps == nil {
		return 0, 0
	}
	cpu := ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return cpu, float64(ru.Maxrss) / 1024
	}
	return cpu, 0
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNs returns the exact q-quantile of sorted nanosecond samples
// (nearest rank) and the number of samples above it.
func quantileNs(sorted []int64, q float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - 1 - i
}

// tailReport names the highest of p99, p90, p75 with at least ten samples
// beyond it, the reporting rule for latency tails.
func tailReport(sorted []int64) string {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}} {
		if v, beyond := quantileNs(sorted, q.q); beyond >= 10 {
			return fmt.Sprintf("%s=%.4fms (n=%d, %d beyond)", q.name, float64(v)/1e6, len(sorted), beyond)
		}
	}
	return fmt.Sprintf("no tail percentile has 10 samples beyond it (n=%d)", len(sorted))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
