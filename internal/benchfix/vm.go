package benchfix

import (
	"errors"

	"jkernel/internal/core"
	"jkernel/internal/vmkit"
)

// The VM fixture's classes. The server domain exports Svc; the client
// domain runs the Bench loops, each counting down its int argument around
// one operation (baseline runs the bare loop).

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

// MsgS crosses by serialization; MsgF by fast copy. Both are chains of
// nodes carrying a payload array, so "N objects of M bytes" shapes build
// naturally.
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

const svcImplSrc = `
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
.method sink (LMsgS;)I stack 2 locals 0
  iconst 1
  retv
.end
.method sinkF (LMsgF;)I stack 2 locals 0
  iconst 1
  retv
.end
`

const localIfaceSrc = `
.class LocalIface interface
.method inop ()V
.end
`

const localTargetSrc = `
.class LocalTarget implements LocalIface
.method nop ()V stack 2 locals 0
  ret
.end
.method inop ()V stack 2 locals 0
  ret
.end
`

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
.method static runRegular (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  invokevirtual LocalTarget.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runIface (I)V stack 8 locals 1
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
.method static runLock (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.target:LLocalTarget;
  monitorenter
  getstatic Bench.target:LLocalTarget;
  monitorexit
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  invokeinterface Svc.nop:()V
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static runLRMI3 (I)V stack 10 locals 1
loop:
  load 0
  ifz done
  getstatic Bench.cap:LSvc;
  iconst 1
  iconst 2
  iconst 3
  invokeinterface Svc.add3:(III)I
  pop
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
.method static baseline (I)V stack 8 locals 1
loop:
  load 0
  ifz done
  load 0
  iconst 1
  isub
  store 0
  jmp loop
done:
  ret
.end
`

// VM is the two-domain fixture of Tables 1, 2, 3, 4, 6 and 7: a server
// domain exports an SvcImpl capability as "svc" in the repository, and a
// client domain holds it in Bench.cap.
type VM struct {
	k      *core.Kernel
	client *core.Domain
	task   *core.Task
	cap    *core.Capability
}

// NewVM assembles and links the fixture in a fresh kernel running
// profile. Callers must Close it.
func NewVM(profile vmkit.Profile) (*VM, error) {
	k := core.MustNew(core.Options{Profile: profile})
	serverClasses, err := assemble(map[string]string{
		"Svc": svcIfaceSrc, "SvcImpl": svcImplSrc, "MsgS": msgSSrc, "MsgF": msgFSrc,
	})
	if err != nil {
		return nil, err
	}
	server, err := k.NewDomain(core.DomainConfig{Name: "bench-server", Classes: serverClasses})
	if err != nil {
		return nil, err
	}
	shared, err := k.ShareClasses(server, "Svc", "MsgS", "MsgF")
	if err != nil {
		return nil, err
	}
	clientClasses, err := assemble(map[string]string{
		"LocalIface": localIfaceSrc, "LocalTarget": localTargetSrc, "Bench": benchSrc,
	})
	if err != nil {
		return nil, err
	}
	client, err := k.NewDomain(core.DomainConfig{
		Name:    "bench-client",
		Classes: clientClasses,
		Shared:  []*core.SharedClass{shared},
	})
	if err != nil {
		return nil, err
	}
	target, err := server.NewInstance("SvcImpl")
	if err != nil {
		return nil, err
	}
	cap, err := k.CreateVMCapability(server, target)
	if err != nil {
		return nil, err
	}
	if err := k.Repository().Bind("svc", cap); err != nil {
		return nil, err
	}
	task := k.NewDetachedTask(client, "bench")
	if _, err := task.CallStatic("Bench.setup:()V"); err != nil {
		task.Close()
		return nil, err
	}
	return &VM{k: k, client: client, task: task, cap: cap}, nil
}

// assemble assembles each named class source.
func assemble(srcs map[string]string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(srcs))
	for name, src := range srcs {
		b, err := vmkit.AssembleBytes(src)
		if err != nil {
			return nil, err
		}
		out[name] = b
	}
	return out, nil
}

// Close releases the fixture's client task.
func (f *VM) Close() { f.task.Close() }

// Loop is one of the Bench loops (runRegular, runIface, runLock, runLRMI,
// runLRMI3, baseline), run as a single VM call of n iterations.
func (f *VM) Loop(method string) Body {
	ref := "Bench." + method + ":(I)V"
	return func(n int) error {
		_, err := f.task.CallStatic(ref, vmkit.IntVal(int64(n)))
		return err
	}
}

// ThreadLookup is the thread-info lookup the stubs perform per LRMI,
// measured outside bytecode.
func (f *VM) ThreadLookup() Body {
	id := f.task.Thread.ID
	return func(n int) error {
		for i := 0; i < n; i++ {
			if f.k.VM.LookupThread(id) == nil {
				return errors.New("benchfix: thread lookup failed")
			}
		}
		return nil
	}
}

// ArgCopy is Table 4's LRMI with a copied argument: a chain of count
// nodes of size-byte payloads, built in the client domain and passed to
// sinkF (fast copy) or sink (serialization) on every call.
func (f *VM) ArgCopy(fast bool, count, size int) (Body, error) {
	class, method := "MsgS", "sink"
	if fast {
		class, method = "MsgF", "sinkF"
	}
	msg, err := f.chain(class, count, size)
	if err != nil {
		return nil, err
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := f.cap.InvokeVM(f.task, method, msg); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// chain builds count class nodes with size-byte payloads in the client
// domain, linked through their next fields.
func (f *VM) chain(class string, count, size int) (*vmkit.Object, error) {
	var head *vmkit.Object
	for i := 0; i < count; i++ {
		node, err := f.client.NewInstance(class)
		if err != nil {
			return nil, err
		}
		payload, err := f.client.NS.NewArray("[B", size)
		if err != nil {
			return nil, err
		}
		node.Fields[node.Class.FieldByName("payload").Slot] = vmkit.RefVal(payload)
		if head != nil {
			node.Fields[node.Class.FieldByName("next").Slot] = vmkit.RefVal(head)
		}
		head = node
	}
	return head, nil
}
