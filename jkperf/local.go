package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/fastcopy"
	"jkernel/internal/vmkit"
)

// local-lrmi: one caller, one kernel. VM stub LRMIs in short bursts,
// InvokeVM with copied argument graphs, native InvokeFrom, and
// mint→call→revoke cycles.

const svcIfaceSrc = `
.class Svc interface implements jk/kernel/Remote
.method nop ()V
.end
.method add3 (III)I
.end
.method sink (LMsgS;)I
.end
.method sinkF (LMsgF;)I
.end
`

// MsgS crosses by serialization, MsgF by fast copy; both are chains of
// nodes carrying a payload array.
const msgSSrc = `
.class MsgS implements jk/io/Serializable
.field payload [B
.field next LMsgS;
`

const msgFSrc = `
.class MsgF implements jk/io/FastCopy
.field payload [B
.field next LMsgF;
`

// sinkSrc walks a chain and returns the sum over its nodes of the
// payload length plus the payload's first byte: the check that the
// callee received a faithful copy.
func sinkSrc(name, class string) string {
	return fmt.Sprintf(`
.method %[1]s (L%[2]s;)I stack 6 locals 2
  iconst 0
  store 2
loop:
  load 1
  ifnull done
  load 1
  getfield %[2]s.payload:[B
  store 3
  load 2
  load 3
  arraylength
  iadd
  load 3
  iconst 0
  aload
  iadd
  store 2
  load 1
  getfield %[2]s.next:L%[2]s;
  store 1
  jmp loop
done:
  load 2
  retv
.end
`, name, class)
}

var svcImplSrc = `
.class SvcImpl implements Svc
.method nop ()V stack 2 locals 0
  ret
.end
.method add3 (III)I stack 6 locals 0
  load 1
  load 2
  iadd
  load 3
  iadd
  retv
.end
` + sinkSrc("sink", "MsgS") + sinkSrc("sinkF", "MsgF")

const localIfaceSrc = `
.class LocalIface interface
.method inop ()V
.end
`

const localTargetSrc = `
.class LocalTarget implements LocalIface
.method inop ()V stack 2 locals 0
  ret
.end
`

// Bench is the client domain's call loop. runLRMI returns the number of
// calls it made; runLRMI3 returns the sum of add3(base, i, 1) for i = n..1.
const benchSrc = `
.class Bench
.field static cap LSvc;
.field static target LLocalTarget;
.method static setup ()V stack 4 locals 0
  sconst "svc"
  invokestatic jk/kernel/Repository.lookup:(Ljk/lang/String;)Ljk/kernel/Capability;
  cast Svc
  putstatic Bench.cap:LSvc;
  new LocalTarget
  putstatic Bench.target:LLocalTarget;
  ret
.end
.method static runIface (I)V stack 8 locals 0
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokeinterface LocalIface.inop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI (I)I stack 8 locals 1
  iconst 0
  store 1
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  invokeinterface Svc.nop:()V
  load 1
  iconst 1
  iadd
  store 1
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  load 1
  retv
.end
.method static runLRMI3 (II)I stack 10 locals 1
  iconst 0
  store 2
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  load 1
  load 0
  iconst 1
  invokeinterface Svc.add3:(III)I
  load 2
  iadd
  store 2
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  load 2
  retv
.end
`

// Rec is the registered struct crossing native LRMI by fast copy.
type Rec struct {
	A, B int64
	Name string
	Tags []int32
}

func (r *Rec) sum() int64 {
	s := r.A + 3*r.B + int64(len(r.Name))
	for _, t := range r.Tags {
		s += int64(t)
	}
	return s
}

// nativeSvc is the native LRMI target.
type nativeSvc struct{}

func (nativeSvc) Null() error                   { return nil }
func (nativeSvc) Sum(r *Rec) (int64, error)     { return r.sum(), nil }
func (nativeSvc) Echo(b []byte) ([]byte, error) { return b, nil }

// Op kinds of local-lrmi and their quota per block of 120 ops: 45% VM
// stub bursts, 30% InvokeVM with copied graphs, 20% native InvokeFrom,
// 5% mint→call→revoke.
const (
	lkVMNull = iota
	lkVMAdd3
	lkCopyS
	lkCopyF
	lkNatNull
	lkNatRec
	lkNatBytes
	lkMint
)

var localQuota = quotaBlock(27, 27, 18, 18, 8, 8, 8, 6)

var localOpNames = [...]string{"op.vm_null", "op.vm_add3", "op.copy_ser", "op.copy_fast", "op.native_null", "op.native_struct", "op.native_bytes", "op.mint_revoke"}

// chainShapes are the copied argument graphs: count nodes of size bytes.
var chainShapes = [...]struct{ count, size int }{{1, 10}, {10, 10}, {1, 1000}}

const (
	chainsPerShape = 4
	recPool        = 16
	bytesPool      = 8
)

func localGen(seed, stream uint64) *gen {
	return newGen(localQuota, seed, stream, func(g *gen, k uint8) op {
		o := op{kind: k}
		switch k {
		case lkVMNull:
			o.n = 1 + g.rng.IntN(16)
		case lkVMAdd3:
			o.n = 1 + g.rng.IntN(16)
			o.a = g.rng.Int64N(1 << 20)
		case lkCopyS, lkCopyF:
			o.shape = uint8(g.rng.IntN(len(chainShapes)))
			o.a = g.rng.Int64N(chainsPerShape)
		case lkNatRec:
			o.a = g.rng.Int64N(recPool)
		case lkNatBytes:
			o.a = g.rng.Int64N(bytesPool)
		}
		return o
	})
}

// chain is one prebuilt argument graph and the value sink must return.
type chain struct {
	head *vmkit.Object
	want int64
}

type localInst struct {
	k      *core.Kernel
	server *core.Domain
	client *core.Domain
	natDom *core.Domain
	task   *core.Task
	ncap   *core.Capability
	vmcap  *core.Capability
	chains [2][len(chainShapes)][]chain // [MsgS, MsgF][shape]
	recs   []*Rec
	bufs   [][]byte
	gen    *gen
	copier *fastcopy.Copier
}

func setupLocal(cfg *config) (*localInst, error) {
	k, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	classes := map[string]string{"Svc": svcIfaceSrc, "SvcImpl": svcImplSrc, "MsgS": msgSSrc, "MsgF": msgFSrc}
	srvClasses, err := assembleAll(classes)
	if err != nil {
		return nil, err
	}
	server, err := k.NewDomain(core.DomainConfig{Name: "lrmi-server", Classes: srvClasses})
	if err != nil {
		return nil, err
	}
	sc, err := k.ShareClasses(server, "Svc", "MsgS", "MsgF")
	if err != nil {
		return nil, err
	}
	cliClasses, err := assembleAll(map[string]string{"LocalIface": localIfaceSrc, "LocalTarget": localTargetSrc, "Bench": benchSrc})
	if err != nil {
		return nil, err
	}
	client, err := k.NewDomain(core.DomainConfig{Name: "lrmi-client", Classes: cliClasses, Shared: []*core.SharedClass{sc}})
	if err != nil {
		return nil, err
	}
	target, err := server.NewInstance("SvcImpl")
	if err != nil {
		return nil, err
	}
	vmcap, err := k.CreateVMCapability(server, target)
	if err != nil {
		return nil, err
	}
	if err := k.Repository().Bind("svc", vmcap); err != nil {
		return nil, err
	}
	natDom, err := k.NewDomain(core.DomainConfig{Name: "native-server"})
	if err != nil {
		return nil, err
	}
	k.RegisterFastCopy(&Rec{}, false)
	ncap, err := k.CreateNativeCapability(natDom, nativeSvc{})
	if err != nil {
		return nil, err
	}
	l := &localInst{k: k, server: server, client: client, natDom: natDom, ncap: ncap, vmcap: vmcap,
		task: k.NewDetachedTask(client, "bench"), gen: localGen(cfg.seed, 0), copier: fastcopy.New()}
	if _, err := l.task.CallStatic("Bench.setup:()V"); err != nil {
		return nil, err
	}

	// Argument pools, from their own stream of the seed.
	r := newRNG(cfg.seed, 100)
	for ci, class := range []string{"MsgS", "MsgF"} {
		for si, sh := range chainShapes {
			for j := 0; j < chainsPerShape; j++ {
				c, err := buildChain(client, class, sh.count, sh.size, payload(r, sh.count*sh.size))
				if err != nil {
					return nil, err
				}
				l.chains[ci][si] = append(l.chains[ci][si], c)
			}
		}
	}
	for i := 0; i < recPool; i++ {
		tags := make([]int32, 1+r.IntN(8))
		for j := range tags {
			tags[j] = r.Int32N(1000)
		}
		l.recs = append(l.recs, &Rec{A: r.Int64N(1 << 30), B: r.Int64N(1 << 30), Name: fmt.Sprintf("rec-%d", r.IntN(1e6)), Tags: tags})
	}
	for i := 0; i < bytesPool; i++ {
		l.bufs = append(l.bufs, payload(r, 1024))
	}
	return l, nil
}

func assembleAll(src map[string]string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for name, s := range src {
		b, err := vmkit.AssembleBytes(s)
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", name, err)
		}
		out[name] = b
	}
	return out, nil
}

// buildChain links count nodes of class in d, node i carrying
// data[i*size:(i+1)*size] with its first byte kept below 128 so the VM's
// byte load reads the same value signed or unsigned.
func buildChain(d *core.Domain, class string, count, size int, data []byte) (chain, error) {
	var c chain
	for i := 0; i < count; i++ {
		node, err := d.NewInstance(class)
		if err != nil {
			return c, err
		}
		p := data[i*size : (i+1)*size]
		p[0] &= 0x7f
		if err := d.SetBytesField(node, "payload", p); err != nil {
			return c, err
		}
		if c.head != nil {
			node.Fields[node.Class.FieldByName("next").Slot] = vmkit.RefVal(c.head)
		}
		c.head = node
		c.want += int64(size) + int64(p[0])
	}
	return c, nil
}

// warm runs one op of each kind, checked.
func (l *localInst) warm() error {
	st := newCallerStats()
	for k := range localOpNames {
		l.do(op{kind: uint8(k), n: 1}, st, nil, 0)
	}
	if st.failed > 0 {
		return fmt.Errorf("local-lrmi: warm-up op failed")
	}
	return nil
}

func (l *localInst) close() { l.task.Close() }

// do runs and checks one op.
func (l *localInst) do(o op, st *callerStats, tr *tracer, parent uint64) string {
	t0 := time.Now()
	calls := int64(1)
	var err error
	switch o.kind {
	case lkVMNull:
		var v vmkit.Value
		v, err = l.task.CallStatic("Bench.runLRMI:(I)I", vmkit.IntVal(int64(o.n)))
		if err == nil && v.I != int64(o.n) {
			err = fmt.Errorf("runLRMI(%d) made %d calls", o.n, v.I)
		}
		calls = int64(o.n)
	case lkVMAdd3:
		var v vmkit.Value
		v, err = l.task.CallStatic("Bench.runLRMI3:(II)I", vmkit.IntVal(int64(o.n)), vmkit.IntVal(o.a))
		n := int64(o.n)
		if want := n*o.a + n*(n+1)/2 + n; err == nil && v.I != want {
			err = fmt.Errorf("runLRMI3(%d, %d) = %d, want %d", o.n, o.a, v.I, want)
		}
		calls = n
	case lkCopyS, lkCopyF:
		ci, method := 0, "sink"
		if o.kind == lkCopyF {
			ci, method = 1, "sinkF"
		}
		c := l.chains[ci][o.shape][o.a]
		var out any
		out, err = l.vmcap.InvokeVM(l.task, method, c.head)
		if got, _ := out.(int64); err == nil && got != c.want {
			err = fmt.Errorf("%s returned %v, want %d", method, out, c.want)
		}
	case lkNatNull:
		_, err = l.ncap.InvokeFrom(l.task, "Null")
	case lkNatRec:
		var res []any
		r := l.recs[o.a]
		res, err = l.ncap.InvokeFrom(l.task, "Sum", r)
		if err == nil && (len(res) != 1 || res[0] != r.sum()) {
			err = fmt.Errorf("Sum returned %v, want %d", res, r.sum())
		}
	case lkNatBytes:
		var res []any
		b := l.bufs[o.a]
		res, err = l.ncap.InvokeFrom(l.task, "Echo", b)
		if err == nil && (len(res) != 1 || !bytesEqual(res[0], b)) {
			err = errors.New("Echo returned different bytes")
		}
	case lkMint:
		err = l.mintCallRevoke()
	}
	d := time.Since(t0)
	if err != nil {
		st.fail("local-lrmi %s: %v", localOpNames[o.kind], err)
		return localOpNames[o.kind]
	}
	st.calls += calls
	st.lat.add(int64(d))
	return localOpNames[o.kind]
}

func (l *localInst) mintCallRevoke() error {
	c, err := l.k.CreateNativeCapability(l.natDom, nativeSvc{})
	if err != nil {
		return err
	}
	if _, err := c.InvokeFrom(l.task, "Null"); err != nil {
		return err
	}
	c.Revoke()
	if _, err := c.InvokeFrom(l.task, "Null"); !errors.Is(err, core.ErrRevoked) {
		return fmt.Errorf("call after revoke returned %v, want ErrRevoked", err)
	}
	return nil
}

func bytesEqual(v any, want []byte) bool {
	b, ok := v.([]byte)
	return ok && bytes.Equal(b, want)
}

// probes times each layer local-lrmi exercises on its own.
func (l *localInst) probes(tr *tracer, budget time.Duration, layers map[string]float64) error {
	each := budget / 7
	if err := probe(tr, "vmkit.iface_call", each, 1, func(int) error {
		_, err := l.task.CallStatic("Bench.runIface:(I)V", vmkit.IntVal(1000))
		return err
	}); err != nil {
		return err
	}
	if err := probe(tr, "core.vm_lrmi", each, 1, func(int) error {
		v, err := l.task.CallStatic("Bench.runLRMI:(I)I", vmkit.IntVal(1000))
		if err == nil && v.I != 1000 {
			err = fmt.Errorf("runLRMI made %d calls", v.I)
		}
		return err
	}); err != nil {
		return err
	}
	if err := probe(tr, "core.native_lrmi", each, 1000, func(int) error {
		_, err := l.ncap.InvokeFrom(l.task, "Null")
		return err
	}); err != nil {
		return err
	}
	var copyBytes, copies int64
	for ci, name := range []string{"core.copy_ser", "core.copy_fast"} {
		if err := probe(tr, name, each, 30, func(i int) error {
			sh := i % len(chainShapes)
			c := l.chains[ci][sh][(i/len(chainShapes))%chainsPerShape]
			v, n, err := l.k.CopyValueBetween(l.server, vmkit.RefVal(c.head))
			if err != nil {
				return err
			}
			if got := chainSum(v.R); got != c.want {
				return fmt.Errorf("%s copy sums to %d, want %d", name, got, c.want)
			}
			copyBytes += n
			copies++
			return nil
		}); err != nil {
			return err
		}
	}
	if err := probe(tr, "core.mint_revoke", each, 100, func(int) error {
		c, err := l.k.CreateNativeCapability(l.natDom, nativeSvc{})
		if err == nil {
			c.Revoke()
		}
		return err
	}); err != nil {
		return err
	}
	if err := probe(tr, "fastcopy.copy", each, 100, func(i int) error {
		var src any = l.recs[i%recPool]
		if i%2 == 1 {
			src = l.bufs[i%bytesPool]
		}
		_, err := l.copier.Copy(src)
		return err
	}); err != nil {
		return err
	}
	self := tr.selfTimes()
	layers["vmkit.iface_call_ns"] = self["vmkit.iface_call"].perCall() / 1000
	layers["core.vm_lrmi_ns"] = self["core.vm_lrmi"].perCall() / 1000
	layers["core.native_lrmi_ns"] = self["core.native_lrmi"].perCall()
	layers["core.copy_ser_ns"] = self["core.copy_ser"].perCall()
	layers["core.copy_fast_ns"] = self["core.copy_fast"].perCall()
	layers["core.mint_revoke_ns"] = self["core.mint_revoke"].perCall()
	layers["fastcopy.copy_ns"] = self["fastcopy.copy"].perCall()
	if copies > 0 {
		layers["core.copy_bytes_per_call"] = float64(copyBytes) / float64(copies)
	}
	return nil
}

// chainSum is sink's result computed on the Go side of a copied chain.
func chainSum(o *vmkit.Object) int64 {
	var s int64
	for o != nil {
		p := o.Fields[o.Class.FieldByName("payload").Slot].R
		s += int64(len(p.Bytes)) + int64(p.Bytes[0])
		o = o.Fields[o.Class.FieldByName("next").Slot].R
	}
	return s
}

// warmup precedes every closed-loop measurement.
const warmup = 500 * time.Millisecond

func runLocal(cfg *config, tr *tracer, res *result) error {
	l, setupS, err := repeatSetup(setupReps, func() (*localInst, error) { return setupLocal(cfg) })
	if err != nil {
		return err
	}
	defer l.close()
	res.e2e["setup_s"] = setupS
	framesBefore := framesOut(l.k)
	n, each, probeBudget := phases(cfg)
	run := runClosed(1, warmup, each, n, tr, func(c int, st *callerStats, tr *tracer, parent uint64) string {
		return l.do(l.gen.op(), st, tr, parent)
	})
	res.attempted, res.failed = run.attempted, run.failed
	closedE2E(res, run)
	frames := framesOut(l.k) - framesBefore
	if frames != 0 {
		res.invariant("local-lrmi sent %d wire frames, want 0", frames)
	}
	res.layers["remote.frames_per_call"] = float64(frames) / float64(max(1, run.attempted))
	if tr == nil {
		return nil
	}
	syscallLayers(run, res.layers)
	res.layers["trace.overhead_ratio"] = overheadRatio(run)
	if err := l.probes(tr, probeBudget, res.layers); err != nil {
		res.failed++
		res.attempted++
		logFailure("local-lrmi probe: %v", err)
	}
	return nil
}

// closedE2E fills the end-to-end metrics of a closed-loop run and
// reports its intervals. The p99 goes to the per-layer set: on a host
// whose CPU is shared it moves between runs more than any bound allows,
// while p90 holds steady.
func closedE2E(res *result, run closedRun) {
	for k, v := range closedMetrics(run) {
		res.e2e[k] = v
	}
	res.layers["tail.latency_p99_us"] = res.e2e["latency_p99_us"]
	delete(res.e2e, "latency_p99_us")
	var ivs []map[string]any
	for _, iv := range run.intervals {
		ivs = append(ivs, map[string]any{"traced": iv.traced, "calls": iv.calls, "failed": iv.failed,
			"wall_s": iv.proc.wall.Seconds(), "p50_us": iv.lat.quantile(0.5) / 1e3, "p99_us": iv.lat.quantile(0.99) / 1e3})
	}
	res.report["intervals"] = ivs
	all := newHist()
	for _, iv := range run.intervals {
		if !iv.traced {
			all.merge(iv.lat)
		}
	}
	qs := map[string]float64{}
	for _, q := range []float64{0.1, 0.25, 0.4, 0.45, 0.5, 0.55, 0.6, 0.75, 0.9, 0.99} {
		qs[fmt.Sprint(q)] = all.quantile(q) / 1e3
	}
	res.report["latency_quantiles_us"] = qs
}

// framesOut sums the kernel's remote.frames_out.* counters.
func framesOut(k *core.Kernel) int64 {
	var n int64
	for name, v := range k.Telemetry().Snapshot().Counters {
		if strings.HasPrefix(name, "remote.frames_out.") {
			n += v
		}
	}
	return n
}
