package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tahoma/internal/server"
)

const (
	buildTimeout = 10 * time.Minute
	readyTimeout = 60 * time.Second
	opTimeout    = 10 * time.Second
	// clockTick is the kernel's USER_HZ, the unit of utime/stime in
	// /proc/<pid>/stat. It is 100 on every Linux the toolchain targets and
	// cannot be read without cgo.
	clockTick = 100
)

// buildServer compiles cmd/tahoma of the repository at root into out.
func buildServer(root, out string) error {
	ctx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	defer cancel()
	abs, err := filepath.Abs(out)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs, "./cmd/tahoma")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building tahoma in %s: %v\n%s", root, err, b)
	}
	return nil
}

// serverProc is one live `tahoma serve` process in its own process group.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *bytes.Buffer
	done chan struct{} // closed once stderr is drained
	mu   sync.Mutex    // guards logs
}

// startServer launches the binary on an ephemeral port and returns once it
// has printed its "listening on" line. The caller must call kill.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	// Its own process group, so kill reaches anything it might spawn; and the
	// kernel kills it if this process dies without getting to.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, logs: &bytes.Buffer{}, done: make(chan struct{})}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	addr := make(chan string, 1) // one send: the first "listening on" line
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.logs.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				addr <- rest
				sent = true
			}
		}
	}()
	select {
	case p.base = <-addr:
		return p, nil
	case <-p.done:
		p.kill()
		return nil, fmt.Errorf("server exited before listening:\n%s", p.log())
	case <-time.After(readyTimeout):
		p.kill()
		return nil, fmt.Errorf("server did not print its listening line within %v:\n%s", readyTimeout, p.log())
	}
}

func (p *serverProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.logs.String()
}

// kill SIGKILLs the server's process group and waits for it to be gone. It
// is safe to call more than once.
func (p *serverProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	<-p.done
	_ = p.cmd.Wait() // "signal: killed" is the expected outcome
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
}

// live is every server started and not yet killed, for the signal handler.
var (
	liveMu sync.Mutex
	live   = map[*serverProc]bool{}
)

func killAllServers() {
	liveMu.Lock()
	procs := make([]*serverProc, 0, len(live))
	for p := range live {
		procs = append(procs, p)
	}
	liveMu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// waitReady polls /readyz until it answers 200.
func (p *serverProc) waitReady(c *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited while recovering:\n%s", p.log())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("server not ready within %v:\n%s", readyTimeout, p.log())
}

// cpuSeconds returns the server's user+system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	path := fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading %s (the benchmark needs Linux procfs for server CPU time): %w", path, err)
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s: unexpected format", path)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: unexpected utime/stime %q %q", path, f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// rssMB returns the server's resident set now and its high-water mark.
func (p *serverProc) rssMB() (now, peak float64, err error) {
	path := fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	field := func(key string) (float64, error) {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
		return 0, fmt.Errorf("%s: no %s line", path, key)
	}
	if now, err = field("VmRSS:"); err != nil {
		return 0, 0, err
	}
	peak, err = field("VmHWM:")
	return now, peak, err
}

// newConn returns an HTTP client that holds exactly one keep-alive
// connection: the closed loop's unit of concurrency.
func newConn() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// postJSON posts body and decodes a 200 response into out. It returns the
// response size; any other status is an error carrying the body.
func postJSON(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(b), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return len(b), json.Unmarshal(b, out)
}

// fetchStats reads GET /stats.
func fetchStats(c *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return &st, nil
}
