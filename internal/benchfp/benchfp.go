// Package benchfp captures a host fingerprint for benchmark results.
// perfbench prints Current() in the context line of every run, so a
// difference measured on a different (or merely busier) machine is
// diagnosable as cross-host noise instead of being mistaken for a
// real change. docs/PERF.md describes the same-host protocol the
// fingerprint backs.
package benchfp

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Host identifies the machine and runtime a result was measured on.
type Host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Current fingerprints the running host. The CPU model comes from
// /proc/cpuinfo and is empty on platforms without it — the field is
// best-effort context, not an identifier.
func Current() Host {
	return Host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" from /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if _, val, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}
