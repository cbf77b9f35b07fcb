package benchfix

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/remote"
)

// Pair is two kernels in one process joined by one remote connection,
// so the gap to local LRMI is the protocol and syscall cost. The server
// kernel exports a NullSvc as "null" behind a listener; the client kernel
// has dialed it and imported that export.
type Pair struct {
	Server   *core.Kernel
	Svc      *core.Domain // the server domain behind every export
	Client   *core.Kernel
	Task     *core.Task       // a detached task in the client's "app" domain
	Conn     *remote.Conn     // the client's end
	Null     *core.Capability // the client's proxy for "null"
	listener *remote.Listener
	peer     *remote.Conn // the listener's end of Conn
	dir      string       // the unix socket's directory
}

// NewPair builds a pair over network ("tcp" for loopback, or "unix" for
// a socket in a fresh temporary directory), with both kernels made from
// opts. Callers must Close it.
func NewPair(network string, opts core.Options) (*Pair, error) {
	p := &Pair{Server: core.MustNew(opts), Client: core.MustNew(opts)}
	if err := p.start(network); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *Pair) start(network string) (err error) {
	if p.Svc, err = p.Server.NewDomain(core.DomainConfig{Name: "svc"}); err != nil {
		return err
	}
	app, err := p.Client.NewDomain(core.DomainConfig{Name: "app"})
	if err != nil {
		return err
	}
	p.Task = p.Client.NewDetachedTask(app, "bench")
	addr := "127.0.0.1:0"
	if network == "unix" {
		if p.dir, err = os.MkdirTemp("", "benchfix"); err != nil {
			return err
		}
		addr = filepath.Join(p.dir, "bench.sock")
	}
	if p.listener, err = remote.Listen(p.Server, network, addr); err != nil {
		return err
	}
	if p.Conn, err = remote.Dial(p.Client, network, p.listener.Addr().String()); err != nil {
		return err
	}
	if p.Null, err = p.Export("null", NullSvc{}); err != nil {
		return err
	}
	// The listener tracks an accepted connection only after its handshake,
	// which can finish after the import's reply, and each end pings its
	// peer once at connect. Once both pings are answered, the tables hold
	// their post-import baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if conns := p.listener.Conns(); len(conns) == 1 {
			p.peer = conns[0]
			if p.Conn.TableSizes().Pending == 0 && p.peer.TableSizes().Pending == 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchfix: pair not quiescent after connect (%d listener connections)",
				len(p.listener.Conns()))
		}
		runtime.Gosched()
	}
}

// Export mints a capability for target in the server domain, exports it
// under name, and returns the client's proxy for it.
func (p *Pair) Export(name string, target any) (*core.Capability, error) {
	cap, err := p.Server.CreateNativeCapability(p.Svc, target)
	if err != nil {
		return nil, err
	}
	if err := p.Server.Export(name, cap); err != nil {
		return nil, err
	}
	return p.Conn.Import(name)
}

// Tables snapshots the table sizes of both ends: the client's, then the
// server's.
func (p *Pair) Tables() [2]remote.TableSizes {
	return [2]remote.TableSizes{p.Conn.TableSizes(), p.peer.TableSizes()}
}

// Settle waits up to timeout for both ends' tables to return to base, as
// every answered call and released capability drains, and returns how
// many entries each end still holds above it. Anything but zero is a
// leak.
func (p *Pair) Settle(base [2]remote.TableSizes, timeout time.Duration) [2]int {
	deadline := time.Now().Add(timeout)
	for {
		p.Conn.Flush()
		now := p.Tables()
		if now == base || time.Now().After(deadline) {
			return [2]int{excess(now[0], base[0]), excess(now[1], base[1])}
		}
		time.Sleep(time.Millisecond)
	}
}

// excess counts the entries in now above base, over every table.
func excess(now, base remote.TableSizes) int {
	return now.Exports - base.Exports + now.ExportIDs - base.ExportIDs +
		now.Imports - base.Imports + now.PreRevoked - base.PreRevoked +
		now.Unhook - base.Unhook + now.Pending - base.Pending +
		now.Handoffs - base.Handoffs
}

// Close tears the pair down: the connection, the listener, the client
// task and the socket directory.
func (p *Pair) Close() {
	if p.Conn != nil {
		p.Conn.Close()
	}
	if p.listener != nil {
		p.listener.Close()
	}
	if p.Task != nil {
		p.Task.Close()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}
