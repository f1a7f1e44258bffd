package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// janitor owns everything a run leaves outside its own memory: daemon
// processes and scratch directories. sweep is called on every exit path —
// normal return, error, panic and signal — so no sketchd is orphaned and
// no corpus stays on disk.
type janitor struct {
	mu    sync.Mutex
	procs map[*daemon]struct{}
	dirs  map[string]struct{}
}

var cleanup = &janitor{procs: map[*daemon]struct{}{}, dirs: map[string]struct{}{}}

func (j *janitor) sweep() {
	j.mu.Lock()
	procs, dirs := j.procs, j.dirs
	j.procs, j.dirs = map[*daemon]struct{}{}, map[string]struct{}{}
	j.mu.Unlock()
	for d := range procs {
		d.kill()
	}
	for dir := range dirs {
		os.RemoveAll(dir)
	}
}

// tempDir makes a scratch directory under parent that sweep removes.
func (j *janitor) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
	return dir, nil
}

func (j *janitor) removeDir(dir string) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	os.RemoveAll(dir)
}

// daemon is one sketchd incarnation.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	boot   time.Duration // process start to the first 200 on /readyz
	stderr bytes.Buffer
	exited chan struct{}
	once   sync.Once
}

// dataFlags places the daemon's durable state in dir.
func dataFlags(dir string) []string {
	return []string{"-wal", filepath.Join(dir, "wal"), "-snapshot", filepath.Join(dir, "catalog.ipsx")}
}

// startDaemon launches sketchd on an ephemeral loopback port, reads the
// address it announces, and waits until /readyz answers 200. The daemon
// restores its snapshot before it listens and replays its log before it
// is ready, so boot is the whole recovery.
func startDaemon(bin string, flags []string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	d.cmd.Stderr = &d.stderr
	// If the harness dies without running its clean-up (SIGKILL, a crash in
	// the runtime), the kernel kills the daemon.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	cleanup.mu.Lock()
	cleanup.procs[d] = struct{}{}
	cleanup.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
		d.cmd.Wait()
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.exited:
		d.kill()
		return nil, fmt.Errorf("sketchd exited before listening: %s", d.stderr.String())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, errors.New("sketchd never announced its address")
	}
	c, err := dial(d.addr)
	if err != nil {
		d.kill()
		return nil, err
	}
	defer c.close()
	ready := get("/readyz")
	for {
		r, err := c.do(ready)
		if err == nil && r.status == 200 {
			d.boot = time.Since(start)
			return d, nil
		}
		select {
		case <-d.exited:
			d.kill()
			return nil, fmt.Errorf("sketchd exited before ready: %s", d.stderr.String())
		default:
		}
		if time.Since(start) > 120*time.Second {
			d.kill()
			return nil, errors.New("sketchd never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// kill is kill -9 and a wait: what the daemon had acknowledged is what
// the next incarnation must recover.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.exited
		cleanup.mu.Lock()
		delete(cleanup.procs, d)
		cleanup.mu.Unlock()
	})
}

// rssPeakMB is the daemon's VmHWM, its peak resident set.
func (d *daemon) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the numeric fields follow its ")".
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, errors.New("unparseable /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparseable /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// hostSteal is the CPU time, summed over the VM's processors, that the
// hypervisor has given to someone else while this VM wanted it.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(fields[8], 64)
	return ticks / clockTick
}

// copyTree copies a data directory: every incarnation starts from the
// same bytes, and none writes to the pristine copy.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// treeBytes is the size of every regular file under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// buildSketchd compiles ./cmd/sketchd of the tree at root into outDir.
// Build time is outside every metric.
func buildSketchd(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "sketchd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sketchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sketchd: %v\n%s", err, out)
	}
	return bin, nil
}
