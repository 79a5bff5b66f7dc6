package serve

import (
	"bufio"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"superfe/internal/feature"
	"superfe/internal/gpv"
)

// ackHook wraps the server end of a connection to widen the window
// right after the subscribe ack. It records how many vectors the
// tenant had begun emitting when the ack was written (ackAt), then
// holds the handler until the emitter has begun two more or a few
// milliseconds pass. If the ack were written outside the critical
// section that registers the stream, the emitter would finish vector
// ackAt meanwhile and it would be lost; with the ack under subMu the
// emitter stays parked on the lock and the hold times out.
type ackHook struct {
	net.Conn
	t      *Tenant
	writes int
	ackAt  atomic.Uint64
}

func (h *ackHook) Write(p []byte) (int, error) {
	h.writes++
	if h.writes != 2 { // 1: hello ack, 2: subscribe ack, then vectors
		return h.Conn.Write(p)
	}
	at := h.t.vecsOut.Load()
	h.ackAt.Store(at)
	n, err := h.Conn.Write(p)
	for deadline := time.Now().Add(5 * time.Millisecond); h.t.vecsOut.Load() < at+2 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return n, err
}

// TestSubscribeAckPrecedesEveryLaterVector subscribes while vectors
// are being emitted concurrently: every vector emitted after the ack
// must arrive on the stream, in emission order. Run with -race
// -count=20 to exercise the interleavings.
func TestSubscribeAckPrecedesEveryLaterVector(t *testing.T) {
	srv := New(Config{Workers: 1})
	tn, report, err := srv.StartTenant("edge", "NPOD", 1)
	if err != nil {
		t.Fatalf("StartTenant: %v\n%s", err, report)
	}
	t.Cleanup(func() { srv.Shutdown() })

	srvConn, cliConn := net.Pipe()
	hook := &ackHook{Conn: srvConn, t: tn}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleConn(hook)
	}()

	// The emitter stands in for the tenant engine's sink calls; each
	// vector carries its emission sequence number as its timestamp.
	var stop atomic.Bool
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		vals := []float64{1}
		for i := int64(0); !stop.Load(); i++ {
			tn.emit(feature.Vector{Timestamp: i, Values: vals})
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		cliConn.Close()
		<-emitted
		<-handled
	}()

	c := &Client{conn: cliConn, bw: bufio.NewWriter(cliConn), fr: gpv.NewFrameReader(bufio.NewReader(cliConn))}
	if err := c.send(FrameHello, []byte("edge")); err != nil {
		t.Fatal(err)
	}
	if err := c.awaitOK(); err != nil {
		t.Fatal(err)
	}
	// Let the emitter get going before the subscription.
	for tn.vecsOut.Load() < 100 {
		runtime.Gosched()
	}
	if err := c.Subscribe(); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	ackAt := int64(hook.ackAt.Load())
	const want = 200
	next := int64(-1)
	for n := 0; n < want; n++ {
		v, err := c.NextVector()
		if err != nil {
			t.Fatalf("vector %d: %v", n, err)
		}
		switch {
		case n == 0 && v.Timestamp > ackAt:
			t.Fatalf("first vector after the ack is #%d; vectors #%d..#%d, emitted after the ack, were lost", v.Timestamp, ackAt, v.Timestamp-1)
		case n > 0 && v.Timestamp != next:
			t.Fatalf("vector #%d followed by #%d; stream lost or reordered vectors", next-1, v.Timestamp)
		}
		next = v.Timestamp + 1
	}
}
