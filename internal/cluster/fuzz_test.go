package cluster

import (
	"reflect"
	"testing"
)

// FuzzPeerCodec throws arbitrary bytes at every peer-link decoder — the
// frames a peer daemon, or anything that dials the cluster port, controls.
// No decoder may panic, and any frame a decoder accepts must re-encode to
// a frame that decodes to the same value. (Decoders ignore trailing bytes
// and unknown flag bits, so the re-encoding need not be byte-identical.)
func FuzzPeerCodec(f *testing.F) {
	snap := sampleSnapshot()
	f.Add(EncodeRedirect("attestd-2", "10.0.0.2:7944"))
	f.Add(EncodePeerHello("attestd-0"))
	f.Add(EncodeStateReq("dev-42"))
	f.Add(EncodeStateResp("dev-42", &snap))
	f.Add(EncodeStateResp("dev-43", nil))
	f.Add(EncodeStatePush("dev-44", &snap))
	f.Add(EncodePing())
	f.Add([]byte{})
	f.Add([]byte{magicA, kindStateResp, codecVersion, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind := ClassifyPeer(data)
		if IsPeerHello(data) != (kind == PeerHello) {
			t.Fatalf("IsPeerHello and ClassifyPeer disagree on %x", data)
		}
		if owner, addr, ok := DecodeRedirect(data); ok {
			o2, a2, ok2 := DecodeRedirect(EncodeRedirect(owner, addr))
			if !ok2 || o2 != owner || a2 != addr {
				t.Fatalf("redirect (%q, %q) does not round trip", owner, addr)
			}
		}
		if name, err := DecodePeerHello(data); err == nil {
			if kind != PeerHello {
				t.Fatalf("peer hello decoded from a frame classified %v", kind)
			}
			if n2, err := DecodePeerHello(EncodePeerHello(name)); err != nil || n2 != name {
				t.Fatalf("peer hello %q does not round trip: %q, %v", name, n2, err)
			}
		}
		if id, err := DecodeStateReq(data); err == nil {
			if kind != PeerStateReq {
				t.Fatalf("state request decoded from a frame classified %v", kind)
			}
			if id2, err := DecodeStateReq(EncodeStateReq(id)); err != nil || id2 != id {
				t.Fatalf("state request %q does not round trip: %q, %v", id, id2, err)
			}
		}
		if id, snap, err := DecodeStateResp(data); err == nil {
			if kind != PeerStateResp {
				t.Fatalf("state response decoded from a frame classified %v", kind)
			}
			id2, snap2, err := DecodeStateResp(EncodeStateResp(id, snap))
			if err != nil || id2 != id || !reflect.DeepEqual(snap2, snap) {
				t.Fatalf("state response %q does not round trip: %q, %v", id, id2, err)
			}
		}
		if id, snap, err := DecodeStatePush(data); err == nil {
			if kind != PeerStatePush {
				t.Fatalf("state push decoded from a frame classified %v", kind)
			}
			id2, snap2, err := DecodeStatePush(EncodeStatePush(id, &snap))
			if err != nil || id2 != id || snap2 != snap {
				t.Fatalf("state push %q does not round trip: %q, %v", id, id2, err)
			}
		}
	})
}
