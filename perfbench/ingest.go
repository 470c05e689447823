package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
	"dbgc/internal/replica"
	"dbgc/internal/store"
)

// ingest-sync shape: the defaults of dbgc-client (10 frames/s per sensor,
// window 8) and dbgc-server (-fsync always -sync-repl, -sync-timeout 5s,
// -scrub-interval 1m, -wm-every 32, -open-stores 64).
const (
	ingestPasses  = 8
	ingestClients = 2
	ingestRate    = 10 // frames per second per client in phase 1
	ingestWindow  = 8
	// phase1Share of the run is the open loop. The closed loop that follows
	// sends phase2Frames per client (or stops at the end of the run): a
	// fixed amount of work, so a run writes a bounded volume to disk.
	phase1Share  = 0.8
	phase2Frames = 400
	// ingestMinSamples gives ack_ms_p95 ten samples beyond it.
	ingestMinSamples = 200
	syncTimeout      = 5 * time.Second
	scrubInterval    = time.Minute
	wmEvery          = 32
	openStores       = 64
	drainTimeout     = 10 * time.Second
	// ingestSetups repeats the set-up more often than the other
	// workloads: one takes milliseconds, mostly directory fsyncs and
	// loopback handshakes.
	ingestSetups   = 11
	lagSampleEvery = 10 * time.Millisecond
)

// node is one in-process server: its tenant shards, commit group, and
// listener.
type node struct {
	shards *store.Shards
	group  *store.Group
	srv    *reliable.Server
	addr   string
	served chan error
}

// serve starts srv on a loopback listener.
func (n *node) serve(cfg reliable.ServerConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv = reliable.NewServer(cfg)
	n.addr = ln.Addr().String()
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	return nil
}

// shutdown drains the server and waits for Serve to return.
func (n *node) shutdown() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.served; serr != nil && !errors.Is(serr, reliable.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// closeStores closes the commit group, then the shards.
func (n *node) closeStores() error {
	var errs []error
	if n.group != nil {
		errs = append(errs, n.group.Close())
	}
	if n.shards != nil {
		errs = append(errs, n.shards.Close())
	}
	return errors.Join(errs...)
}

// pair is a primary replicating synchronously to a follower, both on
// local disk under dir.
type pair struct {
	dir               string
	primary, follower node
	receiver          *replica.Receiver
	sender            *replica.Sender
	tr                *tracer
	traced            func(seq uint64) bool
}

// primaryHandler stores one compressed frame the way dbgc-server's handler
// does in its default store-compressed mode with -fsync always -sync-repl:
// Shards.Acquire, Store.Append, Group.Commit, Sender.Kick,
// Sender.WaitDurable, Release.
func (p *pair) primaryHandler(tenant string, m netproto.Message) error {
	traced := p.tr != nil && p.traced(m.Seq)
	key := traceKey(tenant, m.Seq)
	h0 := time.Now()
	st, err := p.primary.shards.Acquire(tenant)
	if err != nil {
		return fmt.Errorf("tenant %s store: %w", tenant, err)
	}
	defer p.primary.shards.Release(tenant)
	if m.Kind != netproto.KindCompressed {
		return fmt.Errorf("%w: unexpected kind %d", reliable.ErrBadFrame, m.Kind)
	}
	a0 := time.Now()
	end, err := st.Append(m.Seq, store.KindCompressed, m.Payload)
	a1 := time.Now()
	if err != nil {
		return err
	}
	err = p.primary.group.Commit(st)
	c1 := time.Now()
	if err != nil {
		return err
	}
	p.sender.Kick()
	err = p.sender.WaitDurable(tenant, end, syncTimeout)
	w1 := time.Now()
	if traced {
		p.tr.interval(key, "server.handle", "frame", h0, w1)
		p.tr.interval(key, "store.append", "server.handle", a0, a1)
		p.tr.interval(key, "store.commit", "server.handle", a1, c1)
		p.tr.interval(key, "replica.wait", "server.handle", c1, w1)
	}
	if err != nil {
		return fmt.Errorf("sync replication: %w", err)
	}
	return nil
}

// followerRecord applies one replication record through the receiver,
// recording the apply span of traced frames.
func (p *pair) followerRecord(m netproto.Message) error {
	if p.tr == nil {
		return p.receiver.HandleRecord(m)
	}
	t0 := time.Now()
	err := p.receiver.HandleRecord(m)
	t1 := time.Now()
	if rec, derr := replica.DecodeRecord(m.Payload); derr == nil && !rec.Scrub && p.traced(rec.Seq) {
		p.tr.interval(traceKey(rec.Tenant, rec.Seq), "replica.apply", "replica.wait", t0, t1)
	}
	return err
}

// startPair opens both stores, starts the follower and the primary with
// its replication sender.
func startPair(dir string, tr *tracer, traced func(uint64) bool) (*pair, error) {
	p := &pair{dir: dir, tr: tr, traced: traced}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	var err error
	// Follower, wired as dbgc-server -follower.
	if p.follower.shards, err = store.OpenShards(filepath.Join(dir, "follower"), openStores); err != nil {
		return nil, err
	}
	p.follower.group = store.NewGroup(0)
	if p.receiver, err = replica.NewReceiver(p.follower.shards, p.follower.group, wmEvery); err != nil {
		return nil, err
	}
	if err := p.follower.serve(reliable.ServerConfig{
		Handle: func(string, netproto.Message) error {
			return errors.New("follower: not promoted")
		},
		ReplHello:  p.receiver.HandleHello,
		ReplRecord: p.followerRecord,
		NotReady:   p.receiver.NotReady,
	}); err != nil {
		return nil, err
	}
	// Primary, wired as dbgc-server -replica-of -sync-repl -fsync always.
	if p.primary.shards, err = store.OpenShards(filepath.Join(dir, "primary"), openStores); err != nil {
		return nil, err
	}
	p.primary.group = store.NewGroup(0)
	meta, err := replica.LoadMeta(p.primary.shards.Dir())
	if err != nil {
		return nil, err
	}
	p.sender, err = replica.NewSender(replica.SenderConfig{
		Shards: p.primary.shards,
		Addr:   p.follower.addr,
		DialTo: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		Epoch:         meta.Epoch,
		ScrubInterval: scrubInterval,
	})
	if err != nil {
		return nil, err
	}
	go p.sender.Run()
	if err := p.primary.serve(reliable.ServerConfig{Handle: p.primaryHandler}); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

// close stops the servers, the sender and the stores, primary first, and
// waits for every goroutine they started.
func (p *pair) close() error {
	var errs []error
	errs = append(errs, p.primary.shutdown())
	if p.sender != nil {
		p.sender.Stop()
		p.sender.Wait()
	}
	errs = append(errs, p.primary.closeStores(), p.follower.shutdown())
	if p.receiver != nil {
		errs = append(errs, p.receiver.Close())
	}
	errs = append(errs, p.follower.closeStores())
	return errors.Join(errs...)
}

// sensor is one client of the ingest workload. Its fields are touched only
// by the goroutine driving the client (OnAck runs inside Send/Tick/Flush).
type sensor struct {
	tenant   string
	idx      int
	cl       *reliable.Client
	payloads [][]byte
	nextSeq  uint64
	sent     map[uint64]outgoing
	acked    map[uint64][]byte
	ackMs    [2][]float64 // phase 1 ack latency: [untraced, traced]
	acked2   int          // frames acked in phase 2
	lagMax   time.Duration
	tr       *tracer
	traced   func(uint64) bool
}

// outgoing is a frame handed to the client: when it was due, in which
// phase (0 for the warm-up frame), and its payload.
type outgoing struct {
	due     time.Time
	phase   int
	payload []byte
}

func (s *sensor) tracing(seq uint64) bool { return s.tr != nil && s.traced(seq) }

func newSensor(i int, addr string, payloads [][]byte, tr *tracer, traced func(uint64) bool) (*sensor, error) {
	s := &sensor{
		tenant: fmt.Sprintf("sensor%d", i), idx: i, payloads: payloads,
		sent: map[uint64]outgoing{}, acked: map[uint64][]byte{}, tr: tr, traced: traced,
	}
	cl, err := reliable.NewClient(reliable.Options{
		Dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) },
		Tenant:      s.tenant,
		MaxInFlight: ingestWindow,
		OnAck:       s.onAck,
		Seed:        int64(i + 1),
	})
	if err != nil {
		return nil, err
	}
	s.cl = cl
	return s, nil
}

func (s *sensor) onAck(seq uint64) {
	now := time.Now()
	f := s.sent[seq]
	s.acked[seq] = f.payload
	switch f.phase {
	case 1:
		i := 0
		if s.tracing(seq) {
			i = 1
		}
		s.ackMs[i] = append(s.ackMs[i], float64(now.Sub(f.due))/1e6)
	case 2:
		s.acked2++
	}
	if s.tracing(seq) {
		s.tr.add(span{Trace: traceKey(s.tenant, seq), Name: "frame", Start: s.tr.at(f.due), End: s.tr.at(now),
			Counts: map[string]float64{"phase": float64(f.phase)}})
	}
}

// send hands the next frame to the client; due is when it was scheduled.
func (s *sensor) send(due time.Time, phase int) error {
	s.nextSeq++
	seq := s.nextSeq
	payload := s.payloads[(int(seq)+s.idx)%len(s.payloads)]
	s.sent[seq] = outgoing{due: due, phase: phase, payload: payload}
	t0 := time.Now()
	err := s.cl.Send(netproto.Message{Kind: netproto.KindCompressed, Seq: seq, Payload: payload})
	t1 := time.Now()
	if s.tracing(seq) {
		s.tr.add(span{Trace: traceKey(s.tenant, seq), Name: "reliable.send", Parent: "frame", Start: s.tr.at(t0), End: s.tr.at(t1),
			Counts: map[string]float64{"phase": float64(phase)}})
	}
	return err
}

// openLoop sends n frames on a fixed schedule from start, waiting for each
// due time inside Tick (acks are seen only inside client calls), then
// waits for every ack.
func (s *sensor) openLoop(start time.Time, n int, period, offset time.Duration) error {
	for k := 0; k < n; k++ {
		due := start.Add(offset + time.Duration(k)*period)
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			if s.cl.InFlight() > 0 {
				if err := s.cl.Tick(wait); err != nil {
					return err
				}
			} else {
				time.Sleep(wait)
			}
		}
		if lag := time.Since(due); lag > s.lagMax {
			s.lagMax = lag
		}
		if err := s.send(due, 1); err != nil {
			return err
		}
	}
	return s.cl.Flush()
}

// closedLoop sends n frames as fast as the window allows, stopping early
// at the deadline, then waits for every ack.
func (s *sensor) closedLoop(n int, until time.Time) error {
	for k := 0; k < n && time.Now().Before(until); k++ {
		if err := s.send(time.Now(), 2); err != nil {
			return err
		}
	}
	return s.cl.Flush()
}

// runSensors runs fn on every sensor on its own goroutine and waits.
func runSensors(sensors []*sensor, fn func(*sensor) error) []error {
	errs := make([]error, len(sensors))
	var wg sync.WaitGroup
	for i, s := range sensors {
		wg.Add(1)
		go func(i int, s *sensor) {
			defer wg.Done()
			errs[i] = fn(s)
		}(i, s)
	}
	wg.Wait()
	return errs
}

// setupIngest starts a pair and connects the sensors; each sends one
// warm-up frame so the client hellos and the replication handshake are
// done before anything is timed.
func setupIngest(dir string, payloads [][]byte, tr *tracer, traced func(uint64) bool) (*pair, []*sensor, error) {
	p, err := startPair(dir, tr, traced)
	if err != nil {
		return nil, nil, err
	}
	sensors := make([]*sensor, ingestClients)
	for i := range sensors {
		if sensors[i], err = newSensor(i, p.primary.addr, payloads, tr, traced); err != nil {
			p.close()
			return nil, nil, err
		}
	}
	errs := runSensors(sensors, func(s *sensor) error {
		if err := s.send(time.Now(), 0); err != nil {
			return err
		}
		return s.cl.Flush()
	})
	if err := errors.Join(errs...); err != nil {
		closeSensors(sensors)
		p.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return p, sensors, nil
}

func closeSensors(sensors []*sensor) error {
	var errs []error
	for _, s := range sensors {
		errs = append(errs, s.cl.Close())
	}
	return errors.Join(errs...)
}

// storeCheck is the outcome of reopening one node's stores cold.
type storeCheck struct {
	reopenMs []float64 // per tenant shard
	bytes    int64     // store bytes over all shards
	missing  []string  // acked frames absent or different
}

// verifyNode reopens a node's shard directory cold and checks that every
// acked frame is stored, as a compressed record, byte-identical to what
// the client sent.
func verifyNode(dir string, acked map[string]map[uint64][]byte) (storeCheck, error) {
	var c storeCheck
	sh, err := store.OpenShards(dir, openStores)
	if err != nil {
		return c, err
	}
	defer sh.Close()
	tenants := make([]string, 0, len(acked))
	for t := range acked {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		t0 := time.Now()
		st, err := sh.Acquire(tenant)
		if err != nil {
			return c, err
		}
		c.reopenMs = append(c.reopenMs, float64(time.Since(t0))/1e6)
		c.bytes += st.End()
		for seq, want := range acked[tenant] {
			got, kind, err := st.Get(seq)
			switch {
			case err != nil:
				c.missing = append(c.missing, fmt.Sprintf("%s/%d: %v", tenant, seq, err))
			case kind != store.KindCompressed || !bytes.Equal(got, want):
				c.missing = append(c.missing, fmt.Sprintf("%s/%d: stored record differs from the frame sent", tenant, seq))
			}
		}
		sh.Release(tenant)
	}
	return c, nil
}

func runIngest(cfg config) (*result, error) {
	frames, err := drive(cfg.Seed, ingestPasses)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)
	ih := inputsHash(frames)
	res.Inputs = fmt.Sprintf("%x", ih)
	payloads, err := compressAll(frames, q)
	if err != nil {
		return nil, err
	}
	var rawBytes, compBytes float64
	for i, f := range frames {
		rawBytes += float64(f.rawBytes())
		compBytes += float64(len(payloads[i]))
	}
	frames = nil
	settle()
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.WorkDir)

	tr := res.tracer
	traced := func(seq uint64) bool { return seq%2 == 1 }
	// Set-up: stores, both servers, the replication handshake and the
	// client hellos, each time in fresh directories; the last is kept.
	setupCPU, setupWall := make([]float64, ingestSetups), make([]float64, ingestSetups)
	var p *pair
	var sensors []*sensor
	for i := range setupCPU {
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("setup%d", i))
		runtime.GC() // every repeat starts from the same heap state
		c0, t0 := cpuTime(), time.Now()
		var setupTr *tracer
		if i == len(setupCPU)-1 {
			setupTr = tr
		}
		p, sensors, err = setupIngest(dir, payloads, setupTr, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU[i], setupWall[i] = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
		if i < len(setupCPU)-1 {
			err := errors.Join(closeSensors(sensors), p.close())
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}

	// The traced run samples the replication lag on its own goroutine so
	// the sensors' ack handling is not delayed by it.
	var lagBytes int64
	stopLag, lagDone := make(chan struct{}), make(chan struct{})
	if tr != nil {
		go func() {
			defer close(lagDone)
			tick := time.NewTicker(lagSampleEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					lagBytes = max(lagBytes, p.sender.Stats().LagBytes)
				}
			}
		}()
	} else {
		close(lagDone)
	}

	// Phase 1: open loop at the sensor rate, the clients offset by half a
	// period so their frames interleave.
	period := time.Second / ingestRate
	n1 := int(cfg.Seconds * phase1Share * ingestRate)
	if min := (ingestMinSamples + ingestClients - 1) / ingestClients; n1 < min && !cfg.Trace {
		n1 = min
	}
	start1 := time.Now().Add(period)
	cpu1 := cpuTime()
	errs1 := runSensors(sensors, func(s *sensor) error {
		return s.openLoop(start1, n1, period, time.Duration(s.idx)*period/ingestClients)
	})
	cpu1 = cpuTime() - cpu1
	// Phase 2: closed loop, window 8.
	d2 := time.Duration(max(cfg.Seconds*(1-phase1Share), 1) * float64(time.Second))
	start2 := time.Now()
	errs2 := runSensors(sensors, func(s *sensor) error { return s.closedLoop(phase2Frames, start2.Add(d2)) })
	phase2 := time.Since(start2)
	close(stopLag)
	<-lagDone

	var stats reliable.Stats
	for _, s := range sensors {
		st := s.cl.Stats()
		stats.Resent += st.Resent
		stats.BusyNacked += st.BusyNacked
		stats.Nacked += st.Nacked
	}
	pCommits, pRounds := p.primary.group.Stats()
	fCommits, fRounds := p.follower.group.Stats()
	closeErr := errors.Join(closeSensors(sensors), p.close())
	for _, err := range append(append(errs1, errs2...), closeErr) {
		if err != nil {
			res.fail("ingest: %v", err)
		}
	}

	// Correctness gate: every acked frame is on both nodes' disks after a
	// cold reopen, byte-identical to what was sent.
	acked := map[string]map[uint64][]byte{}
	var ackedBytes float64
	var ack1, ack1Traced []float64
	var lagMax time.Duration
	acked2 := 0
	for _, s := range sensors {
		res.Attempted += len(s.sent)
		if miss := len(s.sent) - len(s.acked); miss > 0 {
			res.failN(miss, "%s: %d frames never acked", s.tenant, miss)
		}
		acked[s.tenant] = s.acked
		for _, b := range s.acked {
			ackedBytes += float64(len(b))
		}
		ack1 = append(ack1, s.ackMs[0]...)
		ack1Traced = append(ack1Traced, s.ackMs[1]...)
		acked2 += s.acked2
		lagMax = max(lagMax, s.lagMax)
	}
	var reopen []float64
	var storeBytes float64
	for _, role := range []string{"primary", "follower"} {
		c, err := verifyNode(filepath.Join(p.dir, role), acked)
		if err != nil {
			return nil, fmt.Errorf("reopening %s stores: %w", role, err)
		}
		for _, m := range c.missing {
			res.fail("%s: %s", role, m)
		}
		reopen = append(reopen, c.reopenMs...)
		storeBytes += float64(c.bytes)
	}

	res.common(setupCPU, setupWall, rawBytes/compBytes)
	fps := float64(acked2) / phase2.Seconds()
	if cfg.Trace {
		spans := tr.snapshot()
		self := selfTimesMs(spans)
		res.Layers["store.append_ms"] = median(self["store.append"])
		res.Layers["store.commit_ms"] = median(self["store.commit"])
		res.Layers["replica.wait_ms"] = median(self["replica.wait"])
		res.Layers["replica.apply_ms"] = median(self["replica.apply"])
		commitEnd, applyEnd := map[string]int64{}, map[string]int64{}
		var sendWait []float64
		for _, s := range spans {
			switch s.Name {
			case "store.commit":
				commitEnd[s.Trace] = s.End
			case "replica.apply":
				applyEnd[s.Trace] = s.End
			case "reliable.send":
				if s.Counts["phase"] == 2 {
					sendWait = append(sendWait, float64(s.dur())/1e6)
				}
			}
		}
		var lag []float64
		for k, c := range commitEnd {
			if a, ok := applyEnd[k]; ok {
				lag = append(lag, float64(a-c)/1e6)
			}
		}
		res.Layers["replica.follower_commit_ms"] = median(lag)
		res.Layers["reliable.send_wait_ms"] = median(sendWait)
		res.Layers["store.fsyncs_per_frame"] = float64(pRounds) / float64(max(pCommits, 1))
		res.Layers["store.fsyncs_per_frame_follower"] = float64(fRounds) / float64(max(fCommits, 1))
		res.Layers["reliable.resends"] = float64(stats.Resent)
		res.Layers["reliable.busy_nacks"] = float64(stats.BusyNacked)
		res.Layers["reliable.nacks"] = float64(stats.Nacked)
		res.Layers["replica.lag_bytes_max"] = float64(lagBytes)
		res.Layers["store.write_amp"] = storeBytes / (2 * ackedBytes)
		res.Layers["store.reopen_ms"] = median(reopen)
		res.Layers["gen.lag_ms_max"] = float64(lagMax) / 1e6
		res.Layers["trace.overhead_pct"] = 100 * (median(ack1Traced)/median(ack1) - 1)
		for _, m := range perLayer {
			if v, ok := res.Layers[m.name]; ok {
				res.note(m.name, v, m.unit, 0)
			}
		}
		res.note("ack_ms_p50.untraced", median(ack1), "ms", len(ack1))
		res.note("ack_ms_p50.traced", median(ack1Traced), "ms", len(ack1Traced))
		res.note("ingest_fps", fps, "1/s", acked2)
	} else {
		// The process CPU of the open loop per frame it acked: the cost of
		// moving one frame through client, primary and follower, and of
		// the pollers that run meanwhile.
		perFrame := msOf(cpu1) / float64(len(ack1))
		res.EndToEnd["cpu_ms_per_op"] = perFrame
		res.note("ingest_cpu_ms_per_frame", perFrame, "ms", len(ack1))
		res.latency("ack_ms_p50", "ack_ms_p95", 95, ack1)
		res.note("gen.lag_ms_max", float64(lagMax)/1e6, "ms", 0)
		res.note("ingest_fps", fps, "1/s", acked2)
	}
	return res, nil
}
