package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/serve"
)

// service is an in-process serve.Server listening on a unix socket
// under .bench_build in the working directory. The socket path is
// relative, so it stays short whatever the checkout's location.
type service struct {
	srv     *serve.Server
	dir     string
	sock    string
	served  chan error
	tenants int
	// reps counts service repetitions; lagged those whose
	// subscription was not yet registered when its ack arrived (see
	// awaitRegistered).
	reps, lagged int
}

// vectorWait bounds how long a repetition waits for the subscriber to
// receive the vectors the tenant reports as emitted.
const vectorWait = 60 * time.Second

func startService() (*service, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("sock-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "ingest.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{srv: serve.New(serve.Config{}), dir: dir, sock: sock, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server down, waits for Serve to return and removes
// the socket directory.
func (s *service) close() error {
	err := s.srv.Shutdown()
	if serr := <-s.served; !errors.Is(serr, serve.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// subscription drains one tenant's vector stream into a digest on its
// own goroutine. reached receives the time the stream delivered the
// target-th vector, once a target is set. It speaks the subscriber
// side of the ingest protocol itself rather than through
// serve.Client, whose NextVector allocates each vector's values: the
// frame reader reuses one buffer and every vector decodes into the
// same value slice, so the measured window's allocations are the
// server's alone.
type subscription struct {
	conn    pollSocket
	fr      *gpv.FrameReader
	v       feature.Vector // decode target, Values reused
	got     digest
	n       atomic.Uint64
	target  atomic.Uint64
	reached chan time.Time
	done    chan error
}

// The server writes each vector frame to the subscriber on its own,
// ~150k frames/s. A reader parked on the socket, or a socket in the Go
// runtime's poller, is woken for each of them, and on a host of two
// CPUs those wakeups of the load generator take CPU from the server
// and vary with the host's other load. So the subscriber's socket
// stays outside the poller, non-blocking: with nothing to read the
// subscriber sleeps subscriberPoll, then takes up to subscriberBuffer
// bytes in one read. The socket buffer (~200 KB) holds well over one
// poll interval of frames, so the server's writes do not block on it.
const (
	subscriberBuffer = 1 << 18
	subscriberPoll   = 200 * time.Microsecond
)

// pollSocket is a unix stream socket the Go runtime does not poll.
type pollSocket int

func dialPoll(path string) (pollSocket, error) {
	fd, err := syscall.Socket(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, err
	}
	if err := syscall.Connect(fd, &syscall.SockaddrUnix{Name: path}); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return pollSocket(fd), nil
}

func (p pollSocket) Read(b []byte) (int, error) {
	for {
		n, err := syscall.Read(int(p), b)
		switch {
		case err == syscall.EAGAIN:
			time.Sleep(subscriberPoll)
		case err == syscall.EINTR:
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

func (p pollSocket) Write(b []byte) (int, error) {
	done := 0
	for done < len(b) {
		n, err := syscall.Write(int(p), b[done:])
		switch {
		case err == syscall.EAGAIN:
			time.Sleep(subscriberPoll)
		case err == syscall.EINTR:
		case err != nil:
			return done, err
		default:
			done += n
		}
	}
	return done, nil
}

// shutdown ends the stream both ways, so a pending Read returns EOF.
func (p pollSocket) shutdown() { syscall.Shutdown(int(p), syscall.SHUT_RDWR) }

func (p pollSocket) Close() error { return syscall.Close(int(p)) }

// subscribe dials the server, binds the connection to tenant and
// subscribes it to the tenant's vectors.
func subscribe(sock, tenant string) (*subscription, error) {
	conn, err := dialPoll(sock)
	if err != nil {
		return nil, err
	}
	s := &subscription{conn: conn, fr: gpv.NewFrameReader(bufio.NewReaderSize(conn, subscriberBuffer)),
		reached: make(chan time.Time, 1), done: make(chan error, 1)}
	frame, _ := gpv.AppendFrame(nil, serve.FrameHello, []byte(tenant)) // bounded: a tenant name
	frame, _ = gpv.AppendFrame(frame, serve.FrameSubscribe, nil)
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return nil, err
	}
	for range 2 { // hello and subscribe acks
		kind, payload, err := s.fr.Next()
		if err == nil && kind != serve.FrameOK {
			err = fmt.Errorf("subscribe: frame kind %d: %s", kind, payload)
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *subscription) loop() {
	for {
		kind, payload, err := s.fr.Next()
		if err == nil && kind != serve.FrameVector {
			err = fmt.Errorf("frame kind %d on the vector stream: %s", kind, payload)
		}
		if err == nil {
			err = decodeVector(&s.v, payload)
		}
		if err != nil {
			s.done <- err
			return
		}
		s.got.add(s.v)
		if n := s.n.Add(1); n == s.target.Load() {
			s.reached <- time.Now()
		}
	}
}

// decodeVector decodes one FrameVector payload (serve.AppendVector's
// layout) into v, reusing v.Values. The output check compares every
// decoded vector with the reference, so a decoding bug shows as a
// mismatch.
func decodeVector(v *feature.Vector, p []byte) error {
	const hdr = 1 + 13 + 8 + 4 // gran, tuple, timestamp, dimension
	if len(p) < hdr {
		return fmt.Errorf("vector payload of %d bytes", len(p))
	}
	dim := int(binary.BigEndian.Uint32(p[22:26]))
	if len(p) != hdr+8*dim {
		return fmt.Errorf("vector payload: dimension %d in %d bytes", dim, len(p))
	}
	v.Key = flowkey.Key{
		Gran: flowkey.Granularity(p[0]),
		Tuple: flowkey.FiveTuple{
			SrcIP:   binary.BigEndian.Uint32(p[1:5]),
			DstIP:   binary.BigEndian.Uint32(p[5:9]),
			SrcPort: binary.BigEndian.Uint16(p[9:11]),
			DstPort: binary.BigEndian.Uint16(p[11:13]),
			Proto:   flowkey.Proto(p[13]),
		},
	}
	v.Timestamp = int64(binary.BigEndian.Uint64(p[14:22]))
	v.Values = slices.Grow(v.Values[:0], dim)[:dim]
	for i := range v.Values {
		v.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(p[hdr+8*i:]))
	}
	return nil
}

// await returns when the subscriber has received want vectors.
func (s *subscription) await(want uint64) (time.Time, error) {
	s.target.Store(want)
	if s.n.Load() >= want {
		return time.Now(), nil
	}
	select {
	case t := <-s.reached:
		return t, nil
	case err := <-s.done:
		s.done <- err
		return time.Time{}, fmt.Errorf("subscriber ended after %d of %d vectors: %w", s.n.Load(), want, err)
	case <-time.After(vectorWait):
		return time.Time{}, fmt.Errorf("subscriber received %d of %d vectors within %s", s.n.Load(), want, vectorWait)
	}
}

// awaitRegistered waits until the tenant has registered a subscriber
// and says whether it had to wait. The server acknowledges
// FrameSubscribe before it registers the stream, so vectors emitted
// in between are lost to the subscriber, against the protocol's
// documented promise. The load generator waits here, before the
// measured window, and counts each time the gap was open.
func awaitRegistered(ten *serve.Tenant) (bool, error) {
	if ten.Info().Subscribers > 0 {
		return false, nil
	}
	deadline := time.Now().Add(vectorWait)
	for ten.Info().Subscribers == 0 {
		if time.Now().After(deadline) {
			return true, fmt.Errorf("subscriber not registered within %s of its ack", vectorWait)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true, nil
}

// registration reports how often a repetition found its
// subscription acknowledged but not yet registered.
func (s *service) registration() string {
	return fmt.Sprintf("subscribe ack preceded registration in %d of %d service repetitions (serve defect; each waited for it before ingesting)", s.lagged, s.reps)
}

// startOnce times Server.StartTenant, planvet/planprove gate
// included, and stops the tenant again.
func (s *service) startOnce(in *inputs) (time.Duration, error) {
	s.tenants++
	tenant := fmt.Sprintf("bench-%d", s.tenants)
	runtime.GC()
	t0 := time.Now()
	_, _, err := s.srv.StartTenant(tenant, in.w.policy, in.w.workers)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, s.srv.StopTenant(tenant)
}

// rep runs one service repetition: a fresh tenant, one subscriber and
// one ingest client. The client sends the packets in frameSize-packet
// frames and closes each epoch with Flush, starting the next epoch
// only after the ack (closed loop). The measured window ends at the
// final ack with every emitted vector received.
func (s *service) rep(in *inputs, tr *tracer, name string) (*rep, error) {
	s.tenants++
	tenant := fmt.Sprintf("bench-%d", s.tenants)
	r := &rep{flushes: make([]time.Duration, 0, in.flushes)}

	base := heapInuse() // collects: every set-up starts from a collected heap
	root := tr.begin(name, -1)
	sp := tr.begin("setup", root)
	t0 := time.Now()
	ten, _, err := s.srv.StartTenant(tenant, in.w.policy, in.w.workers)
	if err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	tr.end(sp)
	defer s.srv.StopTenant(tenant)

	sub, err := subscribe(s.sock, tenant)
	if err != nil {
		return nil, err
	}
	s.reps++
	lagged, err := awaitRegistered(ten)
	if lagged {
		s.lagged++
	}
	if err != nil {
		sub.conn.Close()
		return nil, err
	}
	go sub.loop()
	// Shutting the subscriber's socket down ends its loop; wait for it
	// before reading its digest and before the deferred StopTenant.
	stopSub := sync.OnceFunc(func() { sub.conn.shutdown(); <-sub.done; sub.conn.Close() })
	defer stopSub()
	ing, err := serve.Dial("unix", s.sock, tenant)
	if err != nil {
		return nil, err
	}
	defer ing.Close()

	var ierr error
	a0 := mallocs()
	start := time.Now()
	forEpoch(len(in.pkts), in.w.epoch, func(lo, hi int) {
		if ierr != nil {
			return
		}
		ep := tr.begin("epoch", root)
		e0 := time.Now()
		for c := lo; c < hi && ierr == nil; c += frameSize {
			sp := tr.begin("ingest.send", ep)
			ierr = ing.SendPackets(in.pkts[c:min(c+frameSize, hi)])
			tr.end(sp)
		}
		if ierr == nil {
			sp := tr.begin("ingest.flush", ep)
			ierr = ing.Flush()
			tr.end(sp)
		}
		r.flushes = append(r.flushes, time.Since(e0))
		tr.end(ep)
	})
	if ierr != nil {
		return nil, fmt.Errorf("ingest: %w", ierr)
	}
	sp = tr.begin("subscriber.drain", root)
	ack := time.Now()
	last, err := sub.await(ten.Info().Vectors)
	if err != nil {
		return nil, err
	}
	end := ack
	if last.After(end) {
		end = last
	}
	tr.end(sp)
	r.wall = end.Sub(start)
	r.allocs = mallocs() - a0
	tr.end(root)
	r.heap = int64(heapInuse() - base)
	stopSub()
	r.got = sub.got
	return r, nil
}
