package remote

import (
	"errors"
	"fmt"
	"time"

	"jkernel/internal/core"
)

// The bootstrap. In the paper a domain gets its first capability from
// the repository by name, and every interaction after that is a
// capability invocation. The wire keeps the same rule: each connection
// serves a bootstrap at the reserved export id 0, and the wire's own
// round trips are invoke calls on the peer's:
//
//   - Lookup(name): Conn.Import, the capability exported under name and
//     its method manifest;
//   - Manifest(exportID): the lazy manifest fetch of an inline import;
//   - Redeem(nonce, exportID): a three-party handoff redemption at the
//     origin (handoff.go);
//   - Hello(network, addr): swaps advertised listen endpoints, for the
//     announcement NewConn makes and for Conn.Ping.
//
// The bootstrap never enters the export table, so releases, returning
// handles and TableSizes cannot see it; serveInvoke is the only code that
// resolves id 0 to it. It calls serve directly, not through LRMI, so wire
// control traffic leaves no call-graph edge, LRMI count or server span;
// and serveFrame answers each bootstrap call in a reply frame of its own,
// so a Hello probe never waits on a slow user call it shared a frame
// with. Each method below sits next to its client side.

// manifestTimeout bounds a lazy manifest fetch. ProxyMethods holds the
// proxy's manifest lock across it, and a re-exported proxy's manifest
// can itself be a fetch on another connection.
const manifestTimeout = 10 * time.Second

// bootstrap serves the wire's own round trips on one connection.
type bootstrap struct{ c *Conn }

// serve runs one bootstrap call, checking its arguments' count and types.
func (b bootstrap) serve(method string, args []any) ([]any, error) {
	switch method {
	case "Lookup":
		if a, ok := argsOf[string](args, 1); ok {
			return b.lookup(a[0])
		}
	case "Manifest":
		if a, ok := argsOf[uint64](args, 1); ok {
			return b.manifest(a[0])
		}
	case "Redeem":
		if a, ok := argsOf[uint64](args, 2); ok {
			return b.redeem(a[0], a[1])
		}
	case "Hello":
		if a, ok := argsOf[string](args, 2); ok {
			return b.hello(a[0], a[1])
		}
	default:
		return nil, fmt.Errorf("%w: the bootstrap has no method %q", core.ErrNoSuchMethod, method)
	}
	return nil, fmt.Errorf("remote: bootstrap %s: bad arguments", method)
}

// argsOf returns args as n values of type T, or false when the count or
// a type is wrong.
func argsOf[T any](args []any, n int) ([]T, bool) {
	if len(args) != n {
		return nil, false
	}
	out := make([]T, n)
	for i, a := range args {
		v, ok := a.(T)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// lookup answers Lookup: the capability the kernel exports under name,
// and its method manifest.
func (b bootstrap) lookup(name string) ([]any, error) {
	cap := b.c.k.ExportedCapability(name)
	if cap == nil {
		return nil, fmt.Errorf("no export named %q", name)
	}
	return []any{cap, cap.Methods()}, nil
}

// Import asks the peer for the capability it exports under name and
// returns a local proxy for it.
//
//jk:blocking
func (c *Conn) Import(name string) (*core.Capability, error) {
	res, _, err := c.peerBootstrap.call(0, "Lookup", name)
	if err != nil {
		return nil, err
	}
	var cap *core.Capability
	if len(res) == 2 {
		cap, _ = res[0].(*core.Capability)
	}
	if cap == nil {
		return nil, fmt.Errorf("remote: lookup %q returned no capability", name)
	}
	if pt := proxyOf(cap); pt != nil && pt.conn == c {
		ms, _ := res[1].([]string)
		pt.learnManifest(ms)
	}
	return cap, nil
}

// manifest answers Manifest: the method list of the export under
// exportID.
func (b bootstrap) manifest(exportID uint64) ([]any, error) {
	cap := b.c.exportedCap(exportID)
	if cap == nil {
		return nil, fmt.Errorf("%w: unknown export %d", core.ErrRevoked, exportID)
	}
	return []any{cap.Methods()}, nil
}

// ProxyMethods reports the remote method names, fetching the manifest
// from the exporting kernel on first use for inline imports. A fetch that
// fails (connection lost, export already dropped) reports no methods and
// leaves the cache empty, so a transient failure does not poison a
// later call.
func (p *proxyTarget) ProxyMethods() []string {
	p.mmu.Lock()
	defer p.mmu.Unlock()
	if p.fetched {
		return p.methods
	}
	//jk:allow(lockhold) mmu is the proxy's manifest singleflight: concurrent first Methods() calls wait on the one fetch rather than each making the round trip, and manifestTimeout bounds the hold
	res, _, err := p.conn.peerBootstrap.call(manifestTimeout, "Manifest", p.exportID)
	if err != nil || len(res) != 1 {
		return nil
	}
	p.methods, _ = res[0].([]string)
	p.fetched = true
	return p.methods
}

// learnManifest caches a manifest that arrived with the capability,
// unless one is already cached.
func (p *proxyTarget) learnManifest(ms []string) {
	p.mmu.Lock()
	defer p.mmu.Unlock()
	if !p.fetched && ms != nil {
		p.methods, p.fetched = ms, true
	}
}

// redeem answers Redeem: it trades a handoff ticket for a fresh export of
// the capability it names, returned with its method manifest, so a
// shortened import never lazy-fetches through the middleman. The third
// result, unknownTicket, reports a nonce the ticket table does not hold,
// which the caller retries briefly: the registration may still be in
// flight from the middleman. The ticket is consumed either way; a gate
// revoked between mint and redeem yields the capability fault, never a
// resurrected export.
func (b bootstrap) redeem(nonce, exportID uint64) ([]any, error) {
	t, ok := stateOf(b.c.k).takeTicket(nonce)
	if !ok || t.exportID != exportID {
		return []any{uint64(0), []string(nil), true}, nil
	}
	if t.cap.Revoked() {
		fault := core.ErrRevoked
		if t.cap.Owner().Terminated() {
			fault = core.ErrDomainTerminated
		}
		return nil, fmt.Errorf("%w: capability revoked before the handoff was redeemed", fault)
	}
	id, ok := b.c.exportFreshHandle(t.cap)
	if !ok {
		return nil, errors.New("handoff target not exportable on this connection")
	}
	return []any{id, t.cap.Methods(), false}, nil
}

// redeemGrant is one Redeem answer.
type redeemGrant struct {
	exportID      uint64
	methods       []string
	unknownTicket bool
}

// redeem calls Redeem on the origin this connection reaches.
func (c *Conn) redeem(nonce, exportID uint64) (redeemGrant, error) {
	res, _, err := c.peerBootstrap.call(redeemReplyTimeout, "Redeem", nonce, exportID)
	if err != nil {
		return redeemGrant{}, err
	}
	var g redeemGrant
	var idOK, flagOK bool
	if len(res) == 3 {
		g.exportID, idOK = res[0].(uint64)
		g.methods, _ = res[1].([]string)
		g.unknownTicket, flagOK = res[2].(bool)
	}
	if !idOK || !flagOK {
		return redeemGrant{}, errors.New("remote: malformed Redeem answer")
	}
	return g, nil
}

// hello answers Hello: it records the caller's advertised listen
// endpoint and returns this kernel's ("" when not listening).
func (b bootstrap) hello(network, addr string) ([]any, error) {
	b.c.notePeer(network, addr)
	network, addr = advertised(b.c.k)
	return []any{network, addr}, nil
}

// Ping performs one Hello round trip, proving the peer kernel is up and
// serving. Dial-with-retry loops use it as a readiness probe: a
// connection can land in the listen backlog of a process that is already
// dying, and only an answered call distinguishes the two.
//
//jk:blocking
func (c *Conn) Ping(timeout time.Duration) error {
	network, addr := advertised(c.k)
	res, _, err := c.peerBootstrap.call(timeout, "Hello", network, addr)
	if err == nil && len(res) == 2 {
		network, _ = res[0].(string)
		addr, _ = res[1].(string)
		c.notePeer(network, addr)
	}
	return err
}

// notePeer records the peer's advertised listen endpoint, unless it is
// empty or this side already knows the endpoint it dialed.
func (c *Conn) notePeer(network, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peerAddr == "" && addr != "" {
		c.peerNet, c.peerAddr = network, addr
	}
}
