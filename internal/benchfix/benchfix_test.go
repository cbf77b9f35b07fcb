package benchfix

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"jkernel/internal/core"
	"jkernel/internal/httpd"
	"jkernel/internal/remote"
	"jkernel/internal/vmkit"
)

// Each body runs for a few iterations: enough to catch a fixture or body
// that no longer builds or fails, without timing anything.
const smokeN = 5

func TestVMBodies(t *testing.T) {
	for _, profile := range []vmkit.Profile{vmkit.ProfileA, vmkit.ProfileB} {
		t.Run(profile.Name, func(t *testing.T) {
			f, err := NewVM(profile)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			bodies := map[string]Body{"ThreadLookup": f.ThreadLookup()}
			for _, m := range []string{"runRegular", "runIface", "runLock", "runLRMI", "runLRMI3", "baseline"} {
				bodies[m] = f.Loop(m)
			}
			for _, fast := range []bool{false, true} {
				body, err := f.ArgCopy(fast, 10, 10)
				if err != nil {
					t.Fatal(err)
				}
				bodies[fmt.Sprintf("ArgCopy(fast=%v)", fast)] = body
			}
			for name, body := range bodies {
				if err := body(smokeN); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if err := f.Loop("noSuchLoop")(1); err == nil {
				t.Error("a missing Bench loop ran without error")
			}
		})
	}
}

func TestPingPong(t *testing.T) {
	for _, pin := range []bool{false, true} {
		if err := PingPong(pin)(smokeN); err != nil {
			t.Errorf("pin=%v: %v", pin, err)
		}
	}
}

func TestWeb(t *testing.T) {
	w, err := NewWeb(100)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{"static": httpd.StaticHandler(w.Doc), "bridge": w.Bridge} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/index.html", nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.Doc) {
			t.Errorf("%s: status %d, body %q; want 200 and the document", name, rec.Code, rec.Body.Bytes())
		}
	}
	task := w.JWS.K.NewDetachedTask(w.JWS.Domain, "test")
	defer task.Close()
	resp, err := w.JWS.HandleWith(task, []byte("GET /index.html HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(resp, []byte("HTTP/1.0 200")) || !bytes.HasSuffix(resp, w.Doc) {
		t.Errorf("jws: response %q, want 200 and the document", resp)
	}
}

func TestPairBodies(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			p, err := NewPair(network, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if got := p.listener.Addr().Network(); got != network {
				t.Fatalf("listener network %q, want %q", got, network)
			}
			// The post-import baseline: the client imports "null", and the
			// server exports it with one revocation hook.
			base := p.Tables()
			if want := (remote.TableSizes{Imports: 1}); base[0] != want {
				t.Fatalf("client tables %+v, want %+v", base[0], want)
			}
			if want := (remote.TableSizes{Exports: 1, ExportIDs: 1, Unhook: 1}); base[1] != want {
				t.Fatalf("server tables %+v, want %+v", base[1], want)
			}

			// A window smaller than n runs several waves and a partial one.
			for name, body := range map[string]Body{
				"SyncNull": SyncNull(p.Null, p.Task),
				"Batched":  Batched(p.Conn, p.Null, p.Task, 2, "Null"),
			} {
				if err := body(smokeN); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if leaked := p.Settle(base, 10*time.Second); leaked != [2]int{} {
				t.Fatalf("tables above the post-import baseline after the bodies: %v", leaked)
			}

			// Settle counts what stays above the baseline: one more export
			// is one import on the client and three entries on the server.
			if _, err := p.Export("extra", NullSvc{}); err != nil {
				t.Fatal(err)
			}
			if leaked := p.Settle(base, 10*time.Millisecond); leaked != [2]int{1, 3} {
				t.Fatalf("Settle after one extra export = %v, want [1 3]", leaked)
			}

			p.Close()
			for i, c := range []*remote.Conn{p.Conn, p.peer} {
				select {
				case <-c.Done():
				case <-time.After(5 * time.Second):
					t.Errorf("connection end %d still open after Close", i)
				}
			}
			if p.dir != "" {
				if _, err := os.Stat(p.dir); !os.IsNotExist(err) {
					t.Errorf("socket directory %s survives Close: %v", p.dir, err)
				}
			}
		})
	}
}
