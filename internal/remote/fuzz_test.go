package remote

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/seri"
)

// fuzzRef stands in for a capability in fuzzed streams: the External hook
// accepts any handle, so the fuzzer can reach past the reference tags.
type fuzzRef struct{ H uint64 }

type fuzzWireExt struct{}

func (fuzzWireExt) EncodeExternal(v any) (uint64, bool) {
	if r, ok := v.(*fuzzRef); ok {
		return r.H, true
	}
	return 0, false
}

func (fuzzWireExt) DecodeExternal(h uint64) (any, error) {
	return &fuzzRef{H: h}, nil
}

// seedFrames builds one of every protocol frame with the same encoders
// the live connection uses — a captured-traffic corpus without the
// capture: these are byte-for-byte the frames a real exchange produces.
func seedFrames() [][]byte {
	reg := seri.NewRegistry()
	args, err := seri.MarshalExt(reg, []any{"hello", int64(42), []byte{1, 2, 3}, &fuzzRef{H: 7}}, fuzzWireExt{})
	if err != nil {
		panic(err)
	}
	results, err := seri.Marshal(reg, []any{int64(1), "ok"})
	if err != nil {
		panic(err)
	}

	var frames [][]byte
	add := func(w *wbuf) { frames = append(frames, w.b) }

	// Invoke frames: a lone untraced call (flags byte zero), a lone call
	// carrying a trace context, and traced and untraced calls mixed.
	invoke := func(calls ...batchedCall) {
		w := &wbuf{}
		w.u8(msgInvoke)
		w.uvarint(uint64(len(calls)))
		for i := range calls {
			appendCallHeader(w, &calls[i])
			w.raw(calls[i].args)
		}
		add(w)
	}
	invoke(batchedCall{reqID: 1, method: "Echo", args: args})
	invoke(batchedCall{reqID: 1, method: "Echo", traceID: 0xdeadbeefcafe, parentSpan: 42, args: args})
	invoke(
		batchedCall{reqID: 2, method: "Null"},
		batchedCall{reqID: 3, exportID: 1, method: "Sum", traceID: 0xfeedface, parentSpan: 7, args: args},
		batchedCall{reqID: 4, method: "Echo", args: args},
	)

	// Reply frames: a lone success, a lone error, and mixed per-call status.
	reply := func(reps ...replyFrame) {
		w := &wbuf{}
		w.u8(msgReply)
		w.uvarint(uint64(len(reps)))
		for i := range reps {
			appendReplyHeader(w, &reps[i])
			w.raw(reps[i].body)
		}
		add(w)
	}
	reply(replyFrame{reqID: 1, status: statusOK, body: results})
	reply(replyFrame{reqID: 2, status: statusErr, kind: errKindRevoked, msg: "gone"})
	reply(
		replyFrame{reqID: 3, status: statusOK, body: results},
		replyFrame{reqID: 4, status: statusErr, kind: errKindRemote, class: "panic", msg: "boom"},
	)

	// Revocation push.
	w := &wbuf{}
	w.u8(msgRevoke)
	w.uvarint(5)
	w.u8(revokeReasonTerminated)
	add(w)

	// The wire's own round trips: calls on the peer's bootstrap
	// capability (export id 0) and their answers, with the argument and
	// result streams the live connection encodes.
	stream := func(vals ...any) []byte {
		b, err := seri.MarshalExt(reg, vals, fuzzWireExt{})
		if err != nil {
			panic(err)
		}
		return b
	}
	lookup := stream("counter")
	invoke(batchedCall{reqID: 6, method: "Lookup", args: lookup})
	invoke(batchedCall{reqID: 8, method: "Hello", args: stream("unix", "/tmp/origin.sock")})
	invoke(
		batchedCall{reqID: 10, method: "Manifest", args: stream(uint64(9))},
		batchedCall{reqID: 12, method: "Redeem", args: stream(uint64(0xfeedc0ffee), uint64(9))},
	)
	manifest := []string{"Add", "Get"}
	reply(replyFrame{reqID: 6, status: statusOK, body: stream(&fuzzRef{H: packHandle(9, handleKindTheirs)}, manifest)})
	reply(replyFrame{reqID: 7, status: statusErr, kind: errKindRemote, class: "*errors.errorString", msg: "no export named \"x\""})
	reply(replyFrame{reqID: 8, status: statusOK, body: stream("tcp", "10.0.0.7:9090")})
	reply(
		replyFrame{reqID: 10, status: statusOK, body: stream(manifest)},
		replyFrame{reqID: 11, status: statusErr, kind: errKindNoExport, msg: "9"},
	)
	reply(
		replyFrame{reqID: 12, status: statusOK, body: stream(uint64(14), manifest, false)},
		replyFrame{reqID: 13, status: statusOK, body: stream(uint64(0), []string(nil), true)},
	)
	// Malformed argument streams on bootstrap calls: truncated, and not a
	// seri stream at all. Each must fail its call, never panic.
	invoke(batchedCall{reqID: 6, method: "Lookup", args: lookup[:len(lookup)-1]})
	invoke(batchedCall{reqID: 12, method: "Redeem", args: []byte{0xff, 0x00, 0x7f}})

	// Batched import releases (export id, receipt count, generation).
	w = &wbuf{}
	w.u8(msgRelease)
	w.uvarint(3)
	appendReleaseEntry(w, releaseEntry{exportID: 9, count: 2, gen: 4})
	appendReleaseEntry(w, releaseEntry{exportID: 0, count: 1, gen: 1})
	appendReleaseEntry(w, releaseEntry{exportID: 1 << 40, count: 7, gen: 300})
	add(w)

	// Three-party handoff: ticket registration and the offer relayed to
	// the receiver (the redeem is a bootstrap call, above).
	frames = append(frames, encodeRegister(0xfeedc0ffee, 9))
	frames = append(frames, encodeOffer(3, 9, 0xfeedc0ffee, "unix", "/tmp/origin.sock"))

	return frames
}

// badTraceFrames are one-call invoke frames with a malformed trace block:
// an unknown flags value, a set trace flag with a zero trace id, and a
// trace block truncated before the parent span.
var badTraceFrames = [][]byte{
	{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 0xff},
	{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 1, 0, 9},
	{msgInvoke, 1, 1, 0, 4, 'E', 'c', 'h', 'o', 1, 7},
}

// retiredFrames hold one well-formed frame in each retired message type:
// the single-call invoke and reply (1, 2), lookup and its reply (4, 5),
// ping and pong with the feature tail (6, 7), manifest and its reply
// (11, 12), redeem and its reply (14, 15). The decoder must reject each.
var retiredFrames = [][]byte{
	{1, 1, 0, 4, 'E', 'c', 'h', 'o', 0},
	{2, 1, statusOK},
	{4, 1, 4, 'e', 'c', 'h', 'o'},
	{5, 1, statusOK, 2, 1, 4, 'E', 'c', 'h', 'o'},
	{6, 1, 1, 0, 0},
	{7, 1, 1, 0, 0},
	{11, 1, 1},
	{12, 1, statusOK, 1, 4, 'E', 'c', 'h', 'o'},
	{14, 1, 9, 1},
	{15, 1, statusOK, 2, 1, 4, 'E', 'c', 'h', 'o'},
}

// FuzzDecodeFrame drives arbitrary bytes through the full inbound decode
// surface: the frame parsers (decodeFrame, exactly what conn.dispatch
// runs) and, for frames that carry them, the seri argument/result
// streams. Malformed input must come back as an error — which faults the
// connection — never as a panic.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	// Malformed trace blocks seed the corpus too: the fuzzer mutates from
	// the rejection paths as well as the happy ones.
	for _, frame := range badTraceFrames {
		f.Add(frame)
	}
	// Malformed handoff frames: unknown kind and an offer with no origin
	// address. Each must be rejected (faulting the connection), never
	// panic.
	f.Add([]byte{msgHandoff, 9, 1, 2})
	f.Add([]byte{msgHandoff, handoffOffer, 3, 9, 5, 4, 'u', 'n', 'i', 'x', 0})
	// A Redeem call whose argument stream stops mid-ticket.
	f.Add([]byte{msgInvoke, 1, 12, 0, 6, 'R', 'e', 'd', 'e', 'e', 'm', 0, 2, 0xff, 0xff})
	// Frames in the retired message types: the fuzzer mutates from their
	// rejection paths too.
	for _, frame := range retiredFrames {
		f.Add(frame)
	}
	reg := seri.NewRegistry()
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, v, err := decodeFrame(data)
		if err != nil {
			return
		}
		// Follow the dispatch path into the embedded seri streams.
		switch typ {
		case msgInvoke:
			for _, call := range v.(*invokeMsg).calls {
				_, _ = seri.UnmarshalExt(reg, call.args, fuzzWireExt{})
			}
		case msgReply:
			for _, rep := range v.(*replyMsg).replies {
				if rep.status == statusOK {
					_, _ = seri.UnmarshalExt(reg, rep.body, fuzzWireExt{})
				}
			}
		}
	})
}

// A malformed frame over a live connection faults that connection — and
// only that connection: the serving kernel keeps serving.
func TestMalformedFrameFaultsConnection(t *testing.T) {
	server := core.MustNew(core.Options{})
	sd, err := server.NewDomain(core.DomainConfig{Name: "svc"})
	if err != nil {
		t.Fatal(err)
	}
	cap, err := server.CreateNativeCapability(sd, echoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Export("echo", cap); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "fuzz.sock")
	ln, err := Listen(server, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Raw client: each well-framed payload of garbage on its own
	// connection — a bad message type, a count overrunning its frame, a
	// truncated reply, the retired frame types and the malformed trace
	// blocks.
	frames := [][]byte{
		{0xff, 0x01, 0x02},
		{msgInvoke, 0xce, 0xff, 0xff},
		{msgReply},
	}
	frames = append(frames, retiredFrames...)
	for _, garbage := range append(frames, badTraceFrames...) {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(nc, garbage); err != nil {
			t.Fatal(err)
		}
		// The server must close this connection (read eventually errors),
		// not crash and not hang. Reads may first see the server's Hello
		// call, so drain until the close lands.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		for {
			_, err := nc.Read(buf)
			if err == nil {
				continue // the server's Hello or similar chatter; keep draining
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("server kept talking after a malformed frame")
			}
			break // connection faulted, as required
		}
		nc.Close()
	}

	// The kernel behind the listener is unharmed: a fresh, well-behaved
	// connection still imports and invokes.
	client := core.MustNew(core.Options{})
	cd, err := client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(client, "unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	proxy, err := conn.Import("echo")
	if err != nil {
		t.Fatal(err)
	}
	task := client.NewDetachedTask(cd, "after-garbage")
	res, err := proxy.InvokeFrom(task, "Echo", "still here")
	if err != nil || res[0] != any("still here") {
		t.Fatalf("server damaged by malformed frame: %#v %v", res, err)
	}
	if errors.Is(err, core.ErrRevoked) {
		t.Fatal("unexpected revocation")
	}
}
