package journal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"proverattest/internal/cluster"
)

// FuzzJournalReplay throws arbitrary bytes at the record replayer — the
// code that consumes whatever a crash left on disk — and asserts the
// replay invariants: never panic, never apply a record whose embedded
// DeviceID disagrees with its key, and account for every dropped record
// (skipped counter or truncated flag, never silence).
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal body so the fuzzer starts from valid
	// framing and mutates toward interesting corruption.
	var snap cluster.Snapshot
	snap.State.Counter = 42
	snap.State.NonceSeq = 43
	valid := appendRecord(nil, recPut, "dev-a", &snap)
	valid = appendRecord(valid, recTombstone, "dev-b", nil)
	valid = appendRecord(valid, recClean, "", nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                     // torn tail
	f.Add([]byte{})                                 // empty file
	f.Add([]byte{0xFF, 0xFF, 0xFF})                 // short length prefix
	f.Add(binary.LittleEndian.AppendUint32(nil, 0)) // zero-length record

	// Key/DeviceID mismatch seed: framing intact, embedded ID wrong.
	mis := []byte{recPut}
	mis = binary.LittleEndian.AppendUint16(mis, 5)
	mis = append(mis, "dev-x"...)
	mis = cluster.AppendStatePush(mis, "dev-y", &snap)
	mm := binary.LittleEndian.AppendUint32(nil, uint32(len(mis)))
	f.Add(append(mm, mis...))

	f.Fuzz(func(t *testing.T, data []byte) {
		state := make(map[string]cluster.Snapshot)
		res := replayRecords(data, 1<<20, state)

		// Every applied snapshot must round-trip: re-encoding the record for
		// its map key must embed that same key.
		for id, s := range state {
			frame := cluster.AppendStatePush(nil, id, &s)
			gotID, _, err := cluster.DecodeStatePush(frame)
			if err != nil || gotID != id {
				t.Fatalf("applied state for %q does not round-trip: %v", id, err)
			}
		}

		// Walk the framing ourselves and count parseable put records whose
		// embedded ID matches the key; replay may apply at most those.
		applied := 0
		buf := data
		for len(buf) >= 4 {
			n := binary.LittleEndian.Uint32(buf)
			if n == 0 || n > 1<<20 || uint32(len(buf)-4) < n {
				break
			}
			payload := buf[4 : 4+n]
			buf = buf[4+n:]
			kind, key, body, ok := splitRecord(payload)
			if !ok {
				continue
			}
			switch kind {
			case recPut:
				if id, _, err := cluster.DecodeStatePush(body); err == nil && id == key {
					applied++
				}
			case recTombstone:
				applied++ // deletes count as applied effects
			}
		}
		if len(state) > applied {
			t.Fatalf("replay applied %d entries but only %d records were valid", len(state), applied)
		}

		// Dropping data must always be visible: if the input has bytes but
		// nothing applied and nothing flagged, replay swallowed input.
		if len(bytes.TrimRight(data, "\x00")) > 0 && len(state) == 0 &&
			res.skipped == 0 && !res.truncated && !res.clean && applied > 0 {
			t.Fatal("valid records dropped without accounting")
		}
	})
}
