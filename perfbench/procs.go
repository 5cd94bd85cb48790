package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet owns every daemon a run starts. stopAll kills and reaps them
// all; it is idempotent and safe from the signal handler. The children
// also get SIGKILL from the kernel if the benchmark dies first, so a
// crash cannot leave a daemon running to skew the next run.
type procSet struct {
	mu    sync.Mutex
	procs []*exec.Cmd
}

// daemon is one started process and the address it announced.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// start runs bin with args and waits until a stdout line contains
// announce; the text after it, up to the first space, is the address.
func (p *procSet) start(bin string, args []string, announce string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d, err := p.run(cmd)
	if err != nil {
		return nil, err
	}

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			if i := strings.Index(sc.Text(), announce); i >= 0 && !found {
				found = true
				addr <- strings.Fields(sc.Text()[i+len(announce):] + " ")[0]
			}
		}
		if !found {
			close(addr)
		}
		// Keep draining so the daemon never blocks on a full pipe.
		io.Copy(io.Discard, out)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, fmt.Errorf("%s exited without announcing an address", bin)
		}
		d.addr = a
		return d, nil
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("%s did not announce an address within 30s", bin)
	}
}

// run starts cmd and takes ownership of it.
func (p *procSet) run(cmd *exec.Cmd) (*daemon, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cmd.Path, err)
	}
	p.mu.Lock()
	p.procs = append(p.procs, cmd)
	p.mu.Unlock()
	return &daemon{cmd: cmd}, nil
}

// stop kills and reaps one daemon.
func (p *procSet) stop(d *daemon) {
	p.mu.Lock()
	for i, c := range p.procs {
		if c == d.cmd {
			p.procs = append(p.procs[:i], p.procs[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stopAll kills and reaps every daemon still running.
func (p *procSet) stopAll() {
	p.mu.Lock()
	procs := p.procs
	p.procs = nil
	p.mu.Unlock()
	for _, c := range procs {
		c.Process.Kill()
		c.Wait()
	}
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
