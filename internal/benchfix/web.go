package benchfix

import (
	"jkernel/internal/core"
	"jkernel/internal/httpd"
)

// Web is Table 5's fixture: one in-memory document, served by the native
// static handler (httpd.StaticHandler(Doc)), through the bridge into a
// document servlet domain, and by the interpreted JWS server.
type Web struct {
	Doc    []byte
	Bridge *httpd.Bridge
	JWS    *httpd.JWS
}

// NewWeb builds the fixture around a size-byte document, in one fresh
// kernel.
func NewWeb(size int) (*Web, error) {
	doc := make([]byte, size)
	for i := range doc {
		doc[i] = byte('a' + i%26)
	}
	k := core.MustNew(core.Options{})
	bridge, err := httpd.NewBridge(k)
	if err != nil {
		return nil, err
	}
	if _, err := bridge.MountDocServlet("doc", "/", doc); err != nil {
		return nil, err
	}
	jws, err := httpd.NewJWS(k, doc)
	if err != nil {
		return nil, err
	}
	return &Web{Doc: doc, Bridge: bridge, JWS: jws}, nil
}
