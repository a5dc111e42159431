package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"snapdyn/internal/qserve"
)

// server is one spawned snapserve process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	setup  time.Duration
	waited chan struct{}
	stderr strings.Builder
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer executes the snapserve binary and waits for its first
// /healthz 200. setup is exec -> that reply: graph generation, bulk
// load, first snapshot, live-index seeding and, with a WAL directory,
// bootstrap checkpoint or recovery.
func startServer(bin string, in *graphInput, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-scale", strconv.Itoa(in.scale),
		"-edgefactor", strconv.Itoa(edgeFactor),
		"-seed", strconv.FormatUint(in.seed, 10),
		"-live",
	}, extra...)
	s := &server{
		cmd:    exec.Command(bin, args...),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		waited: make(chan struct{}),
	}
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { s.cmd.Wait(); close(s.waited) }()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-s.waited:
			return nil, fmt.Errorf("snapserve exited during start-up: %s", s.stderr.String())
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			s.kill()
			return nil, fmt.Errorf("snapserve not healthy after 2 minutes: %s", s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped — the
// crash of the durability check and the ordinary end of every run.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.waited
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is one reading of everything the server exposes about itself:
// /stats, /healthz and its /proc entry.
type scrape struct {
	stats  qserve.StatsReply
	health qserve.Health
	cpuS   float64 // user + system CPU seconds
	hwmMiB float64 // VmHWM
}

func (s *server) scrape(client *http.Client) (scrape, error) {
	var sc scrape
	if err := getJSON(client, s.base+"/stats", &sc.stats); err != nil {
		return sc, err
	}
	if err := getJSON(client, s.base+"/healthz", &sc.health); err != nil {
		return sc, err
	}
	pid := s.cmd.Process.Pid
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// utime and stime are fields 14 and 15; the command name (field
		// 2) may hold spaces, so count from the closing parenthesis.
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				sc.cpuS = (ut + st) / 100 // USER_HZ is 100 on Linux
			}
		}
	}
	sc.hwmMiB = s.statusMiB("VmHWM:")
	return sc, nil
}

// statusMiB reads one kB-valued line of the server's /proc status; 0
// when the line cannot be read.
func (s *server) statusMiB(field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssEvery is the period of the resident-set samples.
const rssEvery = 100 * time.Millisecond

// sampleRSS reads the server's resident set every rssEvery until stop
// is closed, then sends the samples.
func (s *server) sampleRSS(stop <-chan struct{}, out chan<- []float64) {
	var samples []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- samples
			return
		case <-tick.C:
			if v := s.statusMiB("VmRSS:"); v > 0 {
				samples = append(samples, v)
			}
		}
	}
}

// quiesce waits until the server has published everything ingested.
// Staleness 0 alone is not enough: a refresh clears the dirty set when
// it starts and publishes when it ends. So it waits for two readings
// with staleness 0 and the same epoch, further apart than any refresh
// this server has taken.
func (s *server) quiesce(client *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	var prev qserve.Health
	settled := false
	for {
		var h qserve.Health
		if err := getJSON(client, s.base+"/healthz", &h); err != nil {
			return err
		}
		if h.Staleness == 0 && settled && h.Epoch == prev.Epoch {
			return nil
		}
		settled = h.Staleness == 0
		prev = h
		if time.Now().After(deadline) {
			return fmt.Errorf("server not quiescent after 10s (staleness %d)", h.Staleness)
		}
		gap := max(100*time.Millisecond, time.Duration(3*h.MaxRefreshMs*float64(time.Millisecond)))
		time.Sleep(gap)
	}
}
