package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records where and how a result was measured.
type envStamp struct {
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // tppd's, from /v1/stats
	GoVersion  string  `json:"go_version"`
	DataDirFS  string  `json:"data_dir_fs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Attempts   int     `json:"attempts"` // windows measured; the least-stolen is reported
	SetupReps  int     `json:"setup_reps"`
	Restarts   int     `json:"restarts"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Trace      bool    `json:"trace"`
	// StealPct is the host CPU time stolen by the hypervisor during the
	// window: on a shared virtual machine it is the first suspect when a
	// run reads slow.
	StealPct float64 `json:"host_steal_pct"`
}

func stamp(cfg config, w *workload, res *runResult, tries int) envStamp {
	return envStamp{
		Commit:     commit(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: res.procs,
		GoVersion:  runtime.Version(),
		DataDirFS:  fsType(cfg.buildDir),
		Workload:   w.name,
		Seed:       cfg.seed,
		Runs:       1,
		Attempts:   tries,
		SetupReps:  cfg.setupReps,
		Restarts:   cfg.restarts,
		Seconds:    cfg.window.Seconds(),
		Clients:    clients,
		Trace:      res.traced,
		StealPct:   res.stealPct,
	}
}

// commit names the measured source: $TPPDBENCH_COMMIT when set (a checkout
// without git metadata), else git's HEAD, else "unknown".
func commit() string {
	if c := os.Getenv("TPPDBENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsTypes names the statfs magic numbers of common Linux filesystems.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType reports the filesystem holding dir (the durable data directory's
// parent).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
