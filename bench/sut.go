package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups holds what must be undone on every exit path (children
// killed, temp dirs removed): normal return, a failed check, SIGINT and
// a panic on the main goroutine all run it.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// repoRoot finds the repository checkout: the nearest ancestor of the
// working directory that holds cmd/cached.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cached", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/cached above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildCached compiles ./cmd/cached once into the checkout's build
// directory. Build time is outside every metric.
func buildCached(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "cached")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cached")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cached: %w\n%s", err, out)
	}
	return bin, nil
}

// tempDir makes a scratch directory under base that is removed on exit.
func tempDir(base, pattern string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, pattern)
	if err != nil {
		return "", err
	}
	onExit(func() { _ = os.RemoveAll(dir) })
	return dir, nil
}

// server is one spawned cached process.
type server struct {
	cmd  *exec.Cmd
	addr string
	args []string
	bin  string
	done chan struct{}
}

// startCached picks a free loopback port in the harness (cached prints
// its -addr flag, not the bound port), spawns cached on it and
// poll-dials until it accepts.
func startCached(bin string, args ...string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	s := &server{addr: addr, args: args, bin: bin}
	return s, s.spawn()
}

func (s *server) spawn() error {
	s.cmd = exec.Command(s.bin, append([]string{"-addr", s.addr}, s.args...)...)
	s.cmd.Stderr = os.Stderr
	// A crash of the harness that skips runCleanups (a panic on an engine
	// goroutine) must still not leave the child behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return err
	}
	s.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(s.cmd, s.done)
	onExit(s.kill)
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", s.addr)
		if err == nil {
			_ = conn.Close()
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("cached exited before accepting on %s", s.addr)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return fmt.Errorf("cached did not accept on %s within 10s", s.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the child and waits until it has ended. Idempotent.
func (s *server) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// selfCPU is the bench process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsType names the filesystem holding path from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
