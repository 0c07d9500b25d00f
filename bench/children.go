//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one program under test running as a child process.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// live tracks running children so that a signal can stop them too.
var live struct {
	sync.Mutex
	set map[*child]bool
}

// startChild starts bin with args, logging to logDir. The kernel kills the
// child if this process dies without stopping it (Pdeathsig), which covers
// the exit paths no Go code runs on.
func startChild(name, bin, logDir, addr string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() kills on purpose
		close(c.done)
	}()
	live.Lock()
	if live.set == nil {
		live.set = map[*child]bool{}
	}
	live.set[c] = true
	live.Unlock()
	return c, nil
}

// stop asks the child to drain (SIGTERM), kills it if it has not exited in
// five seconds, and returns once it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
	live.Lock()
	delete(live.set, c)
	live.Unlock()
}

// tail returns the end of the child's log, for error messages.
func (c *child) tail() string {
	data, _ := os.ReadFile(c.log.Name())
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// stopOnSignal stops every live child when the harness is interrupted, then
// exits; without it SIGINT would orphan daemons holding ports.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		live.Lock()
		cs := make([]*child, 0, len(live.set))
		for c := range live.set {
			cs = append(cs, c)
		}
		live.Unlock()
		for _, c := range cs {
			c.stop()
		}
		os.Exit(1)
	}()
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// deployment is the set of children one served workload talks to: one gqbed,
// or a gqberouter in front of two gqbed shards.
type deployment struct {
	children []*child
	front    *child // the child clients talk to
}

func (d *deployment) stop() {
	// Front first, so a router never logs its shards vanishing.
	for i := len(d.children) - 1; i >= 0; i-- {
		d.children[i].stop()
	}
}

func (d *deployment) pids() []int {
	pids := make([]int, len(d.children))
	for i, c := range d.children {
		pids[i] = c.cmd.Process.Pid
	}
	return pids
}

func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, pid := range d.pids() {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (d *deployment) peakRSS() (float64, error) {
	total := 0.0
	for _, pid := range d.pids() {
		r, err := procPeakRSS(pid)
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

// fleetShards is the shard count of fleet-cold.
const fleetShards = 2

// boot starts the deployment for w from the dataset's snapshots — gqbed with
// -snapshot … -snapshot-mmap and otherwise default flags — and returns it
// with the time from the first exec to a healthy front: what an operator
// waits before the first query can be served.
func boot(binDir string, ds *dataset, shardSnaps []string, w workload, client *http.Client) (*deployment, time.Duration, error) {
	dep := &deployment{}
	start := time.Now()
	startGqbed := func(name, snap string) (*child, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := startChild(name, filepath.Join(binDir, "gqbed"), ds.dir, addr,
			"-snapshot", snap, "-snapshot-mmap", "-addr", addr)
		if err == nil {
			dep.children = append(dep.children, c)
		}
		return c, err
	}
	var err error
	if !w.Fleet {
		dep.front, err = startGqbed("gqbed", ds.snap)
	} else {
		var urls []string
		for i, snap := range shardSnaps {
			var c *child
			if c, err = startGqbed(fmt.Sprintf("shard-%d", i), snap); err != nil {
				break
			}
			urls = append(urls, "http://"+c.addr)
		}
		if err == nil {
			var addr string
			if addr, err = freeAddr(); err == nil {
				dep.front, err = startChild("gqberouter", filepath.Join(binDir, "gqberouter"), ds.dir, addr,
					"-shards", strings.Join(urls, ","), "-addr", addr)
				if err == nil {
					dep.children = append(dep.children, dep.front)
				}
			}
		}
	}
	if err == nil {
		err = waitHealthy(dep, client)
	}
	if err != nil {
		dep.stop()
		return nil, 0, err
	}
	return dep, time.Since(start), nil
}

// waitHealthy polls the front's /healthz until it answers 200 with status
// "ok" — for the router that means every shard is up.
func waitHealthy(dep *deployment, client *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range dep.children {
			select {
			case <-c.done:
				return fmt.Errorf("bench: %s exited during boot:\n%s", c.name, c.tail())
			default:
			}
		}
		resp, err := client.Get("http://" + dep.front.addr + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var h struct {
				Status string `json:"status"`
			}
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &h) == nil && h.Status == "ok" {
				return nil
			}
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond)) // a boot is milliseconds; time.Sleep would quantize it
	}
	return fmt.Errorf("bench: %s not healthy after 20s:\n%s", dep.front.name, dep.front.tail())
}
