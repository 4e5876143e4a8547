package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func affinity(op uintptr, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinToOneCPU re-executes the benchmark confined to the highest CPU it
// may use, unless it already runs on one. Every process it starts
// inherits the mask, and each Go process sizes GOMAXPROCS from it. On a
// shared virtual machine an idle virtual CPU halts, and how long the
// host takes to wake it depends on the host's other tenants; a request
// that hops between processes on two CPUs waits for such wake-ups at
// every hop. On one CPU the process a request hops to runs as soon as
// the sender blocks.
func pinToOneCPU() error {
	var m cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &m); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu, n := -1, 0
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpu, n = c, n+1
		}
	}
	if n <= 1 {
		return nil
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// The mask is per thread and survives exec, so set it on the thread
	// that execs.
	runtime.LockOSThread()
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, os.Environ())
}

// proc is one system-under-test process.
type proc struct {
	name string
	log  string // path of the combined stdout and stderr
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// startProc execs bin with args, logging to logPath. The child gets
// SIGKILL if the benchmark dies first, so no orphan outlives a run.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		log.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of a process log for an error message.
func logTail(path string) string {
	raw, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	return strings.Join(lines[max(len(lines)-10, 0):], "\n")
}

// stopGrace is how long a process may take to exit after SIGTERM. The
// CLI's own shutdown deadline is 10s, so a drain stall shows up as a
// long exit time rather than a kill.
const stopGrace = 12 * time.Second

// stop sends SIGTERM, waits for the exit and falls back to SIGKILL. It
// returns how long the process took to exit and whether it was killed.
func (p *proc) stop() (time.Duration, bool) {
	start := time.Now()
	if p.exited() {
		return 0, false
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return time.Since(start), false
	case <-time.After(stopGrace):
	}
	p.cmd.Process.Kill()
	<-p.done
	return time.Since(start), true
}

// cpuTicks is the process's user+system CPU time in clock ticks.
func cpuTicks(pid int) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// peakRSS is the process's VmHWM in KiB.
func peakRSS(pid int) (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// freeAddr reserves a free loopback port and releases it for the
// process about to bind it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// deployment is one started set of system-under-test processes.
type deployment struct {
	spec   spec
	dir    string
	nodes  []string // node addresses
	router string   // router address, when spec.router
	procs  []*proc
}

// url is where the generator sends predictions.
func (d *deployment) url() string {
	if d.router != "" {
		return "http://" + d.router
	}
	return "http://" + d.nodes[0]
}

// deploy starts the workload's processes under a fresh directory and
// returns once every node answers /healthz and the router, if any,
// reports every peer live; the returned duration is the set-up time.
func deploy(s spec, bin, dir string) (*deployment, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &deployment{spec: s, dir: dir}
	for i := 0; i < s.nodes; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		d.nodes = append(d.nodes, addr)
	}
	if s.router {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		d.router = addr
	}
	start := time.Now()
	for i, addr := range d.nodes {
		args := []string{"serve", "-predictor", "deep", "-addr", addr}
		if s.online {
			args = append(args, "-online", "-uncertainty-floor", "0.3",
				"-durable-dir", filepath.Join(dir, fmt.Sprintf("durable%d", i)),
				"-shadow-dir", filepath.Join(dir, fmt.Sprintf("shadow%d", i)))
		}
		p, err := startProc(fmt.Sprintf("node%d", i), bin, filepath.Join(dir, fmt.Sprintf("node%d.log", i)), args...)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.procs = append(d.procs, p)
	}
	if s.router {
		p, err := startProc("router", bin, filepath.Join(dir, "router.log"),
			"serve", "-addr", d.router, "-peers", strings.Join(d.nodes, ","), "-replicas", "2")
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.procs = append(d.procs, p)
	}
	if err := d.waitReady(start.Add(60 * time.Second)); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func (d *deployment) waitReady(deadline time.Time) error {
	for {
		err := d.ready()
		if err == nil {
			return nil
		}
		for _, p := range d.procs {
			if p.exited() {
				return fmt.Errorf("%s exited during set-up: %v\n%s", p.name, p.err, logTail(p.log))
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up timed out: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *deployment) ready() error {
	for _, n := range d.nodes {
		var h struct {
			Status string `json:"status"`
		}
		if err := getJSON("http://"+n+"/healthz", &h); err != nil {
			return err
		}
		if h.Status != "ok" {
			return fmt.Errorf("node %s: %s", n, h.Status)
		}
	}
	if d.router == "" {
		return nil
	}
	var c struct {
		Peers []struct {
			State  string `json:"state"`
			OnRing bool   `json:"on_ring"`
		} `json:"peers"`
	}
	if err := getJSON("http://"+d.router+"/v1/cluster", &c); err != nil {
		return err
	}
	if len(c.Peers) != len(d.nodes) {
		return fmt.Errorf("router lists %d peers", len(c.Peers))
	}
	for _, p := range c.Peers {
		if p.State != "live" || !p.OnRing {
			return fmt.Errorf("router peer not live")
		}
	}
	return nil
}

// pids lists the running processes.
func (d *deployment) pids() []int {
	var out []int
	for _, p := range d.procs {
		out = append(out, p.cmd.Process.Pid)
	}
	return out
}

// stop tears the deployment down, router first so no forwarding
// connection holds a node's drain open, and reports each process's exit
// time on stderr. It removes the deployment's directory.
func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		p := d.procs[i]
		dur, killed := p.stop()
		note := ""
		if killed {
			note = " (SIGKILL after no exit on SIGTERM)"
		}
		fmt.Fprintf(os.Stderr, "teardown: %s exited in %.3fs%s\n", p.name, dur.Seconds(), note)
	}
	d.procs = nil
	os.RemoveAll(d.dir)
}
