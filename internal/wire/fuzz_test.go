package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"b2b/internal/crypto"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// FuzzUnmarshal drives every wire-message decoder (including the multi-frame
// container and the state-transfer messages) over arbitrary bytes, selected
// by the seed's kind byte. Two properties must hold for every input:
//
//  1. no decoder panics or allocates past the input's size class — length
//     prefixes are attacker-controlled;
//  2. whatever a decoder accepts re-marshals to the identical bytes — the
//     canonical-encoding guarantee signatures depend on;
//  3. decoding copies nothing and writes nothing: the input is unchanged
//     afterwards, and every byte slice in a decoded message lies inside the
//     input with no spare capacity, so appending to a field reallocates
//     instead of overwriting the frame (and the evidence that aliases it).
func FuzzUnmarshal(f *testing.F) {
	ident, err := crypto.NewIdentity("fuzz-party")
	if err != nil {
		f.Fatal(err)
	}
	st := tuple.NewState(3, []byte("rand"), []byte("state"))
	pred := tuple.NewState(2, []byte("pred"), []byte("prev"))
	grp := tuple.NewGroup(1, []byte("grand"), []string{"a", "b"})
	signed := wire.Sign(wire.KindPropose, []byte("body"), ident, nil)
	var h32 [32]byte
	copy(h32[:], bytes.Repeat([]byte{7}, 32))

	prop := wire.Propose{RunID: "r1", Proposer: "a", Object: "o", Group: grp,
		Agreed: pred, Pred: pred, Proposed: st, AuthCommit: h32,
		Mode: wire.ModeUpdate, Update: []byte("delta"), UpdateHash: h32}
	resp := wire.Respond{RunID: "r1", Responder: "b", Object: "o", Group: grp,
		Proposed: st, Current: pred, ReceivedStateHash: h32, Decision: wire.Accepted}
	commit := wire.Commit{RunID: "r1", Proposer: "a", Object: "o",
		Auth: []byte("auth"), Propose: signed, Responds: []wire.Signed{signed}}
	connReq := wire.ConnRequest{ReqID: "q1", Object: "o", Subject: "c",
		SubjectCert: ident.Certificate(), Nonce: []byte("n")}
	connProp := wire.ConnPropose{RunID: "r2", Sponsor: "a", Object: "o", ReqID: "q1",
		Request: signed, CurGroup: grp, NewGroup: grp, NewMembers: []string{"a", "b", "c"},
		Subject: "c", SubjectCert: ident.Certificate(), AuthCommit: h32}
	gResp := wire.GroupRespond{RunID: "r2", Responder: "b", Object: "o",
		CurGroup: grp, NewGroup: grp, Agreed: st, Decision: wire.Accepted}
	gCommit := wire.GroupCommit{RunID: "r2", Sponsor: "a", Object: "o",
		Auth: []byte("auth"), Propose: signed, Responds: []wire.Signed{signed}}
	welcome := wire.Welcome{RunID: "r2", Sponsor: "a", Object: "o",
		Members: []string{"a", "b", "c"}, Group: grp, AgreedTuple: st,
		MemberCerts: []crypto.Certificate{ident.Certificate()}, Commit: gCommit}
	discReq := wire.DiscRequest{ReqID: "q2", Object: "o", Proposer: "b",
		Voluntary: true, Evictees: []string{"b"}, Nonce: []byte("n")}
	discProp := wire.DiscPropose{RunID: "r3", Sponsor: "a", Object: "o", ReqID: "q2",
		Request: signed, CurGroup: grp, NewGroup: grp, NewMembers: []string{"a"},
		Evictees: []string{"b"}, Voluntary: true, AuthCommit: h32}
	stReq := wire.StateRequest{SessionID: "s1", Requester: "c", Object: "o",
		Have: pred, Resume: 4, Window: 8}
	stOffer := wire.StateOffer{SessionID: "s1", Sponsor: "a", Object: "o",
		Group: grp, Members: []string{"a", "b"}, Agreed: st, Mode: wire.XferSnapshot,
		DeltaFrom: 3, Chunks: 7, ChunkLen: 160, TotalLen: 1024, PayloadHash: h32,
		PageSize: 32, PageHashes: [][32]byte{h32, h32, h32}}
	stChunk := wire.StateChunk{SessionID: "s1", Object: "o", Index: 4,
		Payload: []byte("chunk-bytes"), CRC: 0xdeadbeef}
	stAck := wire.StateAck{SessionID: "s1", Object: "o", Next: 5}
	stDone := wire.StateDone{SessionID: "s1", Sponsor: "a", Object: "o",
		Agreed: st, StateHash: h32, PayloadHash: h32, Chunks: 7}
	gDigest := wire.GossipDigest{Object: "o", Pred: pred,
		Hashes: [][32]byte{h32}}
	gDelta := wire.GossipDelta{Object: "o", Pred: pred,
		Commits: [][]byte{commit.Marshal()}}
	prekey := wire.RelayPrekey{Member: "b", Epoch: 3,
		Pub: bytes.Repeat([]byte{9}, 32)}
	rDeposit := wire.RelayDeposit{Recipient: "b", Epoch: 3,
		Sealed: []byte("ephpub||nonce||ciphertext")}
	rPoll := wire.RelayPoll{Recipient: "b", AckThrough: 7, Max: 16}
	rBatch := wire.RelayBatch{Recipient: "b", Entries: []wire.RelayEntry{
		{Seq: 8, Epoch: 3, Sealed: []byte("sealed-1")},
		{Seq: 9, Epoch: 3, Sealed: []byte("sealed-2")},
	}, Remaining: 5}
	welcomePrekeys := welcome
	welcomePrekeys.Prekeys = [][]byte{wire.Sign(wire.KindRelayPrekey, prekey.Marshal(), ident, nil).Marshal()}

	seeds := [][]byte{
		signed.Marshal(),
		wire.Envelope{MsgID: "m", From: "a", To: "b", Object: "o",
			Kind: wire.KindPropose, Payload: []byte("p")}.Marshal(),
		wire.MarshalMulti([][]byte{[]byte("f1"), []byte("f2")}),
		prop.Marshal(),
		resp.Marshal(),
		commit.Marshal(),
		connReq.Marshal(),
		connProp.Marshal(),
		gResp.MarshalConn(),
		gResp.MarshalDisc(),
		gCommit.MarshalConn(),
		gCommit.MarshalDisc(),
		welcome.Marshal(),
		wire.Reject{ReqID: "q1", Object: "o", Sponsor: "a", Reason: "no"}.Marshal(),
		discReq.Marshal(),
		discProp.Marshal(),
		wire.DiscNotice{RunID: "r3", Sponsor: "a", Object: "o",
			Members: []string{"a"}, Group: grp, AgreedTuple: st}.Marshal(),
		stReq.Marshal(),
		stOffer.Marshal(),
		stChunk.Marshal(),
		stAck.Marshal(),
		stDone.Marshal(),
		gDigest.Marshal(),
		gDelta.Marshal(),
		rDeposit.Marshal(),
		rPoll.Marshal(),
		rBatch.Marshal(),
		prekey.Marshal(),
	}
	for i, s := range seeds {
		f.Add(uint8(i), s)
	}
	// A Welcome carrying signed prekey publications exercises the prekey
	// list bounds of the Welcome decoder itself.
	f.Add(uint8(12), welcomePrekeys.Marshal())
	// Envelopes of the reserved kinds 15 and 16 (the removed §7 TTP abort)
	// still decode: receivers route them as unknown kinds.
	for _, k := range []wire.Kind{15, 16} {
		f.Add(uint8(1), wire.Envelope{MsgID: "m", From: "a", To: "b", Object: "o",
			Kind: k, Payload: []byte("p")}.Marshal())
	}

	roundtrip := func(t *testing.T, in []byte, v any, err error, remarshal func() []byte) {
		if err != nil {
			return
		}
		if out := remarshal(); !bytes.Equal(in, out) {
			t.Fatalf("accepted input does not re-marshal canonically:\n in=%x\nout=%x", in, out)
		}
		checkAliases(t, in, reflect.ValueOf(v))
	}

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sum := crypto.Hash(data)
		defer func() {
			if crypto.Hash(data) != sum {
				t.Fatal("decoding wrote its input")
			}
		}()
		switch which % 28 {
		case 0:
			v, err := wire.UnmarshalSigned(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 1:
			v, err := wire.UnmarshalEnvelope(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 2:
			frames, err := wire.UnmarshalMulti(data)
			if err == nil {
				total := 0
				for _, fr := range frames {
					total += len(fr)
				}
				if total > len(data) {
					t.Fatalf("multi frames exceed input: %d > %d", total, len(data))
				}
				roundtrip(t, data, frames, nil, func() []byte { return wire.MarshalMulti(frames) })
			}
		case 3:
			v, err := wire.UnmarshalPropose(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 4:
			v, err := wire.UnmarshalRespond(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 5:
			v, err := wire.UnmarshalCommit(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 6:
			v, err := wire.UnmarshalConnRequest(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 7:
			v, err := wire.UnmarshalConnPropose(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 8:
			v, err := wire.UnmarshalConnRespond(data)
			roundtrip(t, data, v, err, v.MarshalConn)
		case 9:
			v, err := wire.UnmarshalDiscRespond(data)
			roundtrip(t, data, v, err, v.MarshalDisc)
		case 10:
			v, err := wire.UnmarshalConnCommit(data)
			roundtrip(t, data, v, err, v.MarshalConn)
		case 11:
			v, err := wire.UnmarshalDiscCommit(data)
			roundtrip(t, data, v, err, v.MarshalDisc)
		case 12:
			v, err := wire.UnmarshalWelcome(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 13:
			v, err := wire.UnmarshalReject(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 14:
			v, err := wire.UnmarshalDiscRequest(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 15:
			v, err := wire.UnmarshalDiscPropose(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 16:
			v, err := wire.UnmarshalDiscNotice(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 17:
			v, err := wire.UnmarshalStateRequest(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 18:
			v, err := wire.UnmarshalStateOffer(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 19:
			v, err := wire.UnmarshalStateChunk(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 20:
			v, err := wire.UnmarshalStateAck(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 21:
			v, err := wire.UnmarshalStateDone(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 22:
			v, err := wire.UnmarshalGossipDigest(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 23:
			v, err := wire.UnmarshalGossipDelta(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 24:
			v, err := wire.UnmarshalRelayDeposit(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 25:
			v, err := wire.UnmarshalRelayPoll(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 26:
			v, err := wire.UnmarshalRelayBatch(data)
			roundtrip(t, data, v, err, v.Marshal)
		case 27:
			v, err := wire.UnmarshalRelayPrekey(data)
			roundtrip(t, data, v, err, v.Marshal)
		}
	})
}

// checkAliases fails unless every non-empty byte slice reachable from v lies
// inside in and has no spare capacity.
func checkAliases(t *testing.T, in []byte, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if n := v.Len(); n > 0 {
				lo, p := reflect.ValueOf(in).Pointer(), v.Pointer()
				if v.Cap() != n || p < lo || p+uintptr(n) > lo+uintptr(len(in)) {
					t.Fatalf("decoded %s of %d bytes lies outside the input or has spare capacity %d", v.Type(), n, v.Cap())
				}
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			checkAliases(t, in, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkAliases(t, in, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			checkAliases(t, in, v.Elem())
		}
	}
}
