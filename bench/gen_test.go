package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"clarens/internal/rpc"
)

// requestBodies are the encoded bodies of the first ten calls of caller
// 0 on every workload, one full state-churn cycle included. No server
// is involved: the call sequences only generate.
func requestBodies(t *testing.T, seed int64) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	for _, w := range workloads {
		fx := &fixture{w: w, seed: seed}
		g := newGen(seed, streamFixture)
		fx.member, fx.outsider = g.dn(), g.dn()
		cl := &caller{g: newGen(seed, 0)}
		cl.dn = cl.g.dn()
		next := w.calls(fx, cl)
		for i := 0; i < 10; i++ {
			out[w.name] = append(out[w.name], encode(t, w, next()))
		}
	}
	return out
}

func encode(t *testing.T, w *workload, k call) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codecs[w.codec].EncodeRequest(&buf, &rpc.Request{Method: k.method, Params: k.params, ID: 1}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// methods lists the method names in one workload's bodies, sorted: the
// call mix.
func methods(t *testing.T, w *workload, bodies [][]byte) string {
	t.Helper()
	var names []string
	for _, b := range bodies {
		req, err := codecs[w.codec].DecodeRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, req.Method)
		if req.Method == rpc.MulticallMethod {
			entries, _ := rpc.MulticallEntries(req.Params)
			for _, e := range entries {
				sub, _ := rpc.ParseSubCall(e)
				names = append(names, sub.Method)
			}
		}
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := requestBodies(t, 7), requestBodies(t, 7)
	for _, w := range workloads {
		for i := range a[w.name] {
			if !bytes.Equal(a[w.name][i], b[w.name][i]) {
				t.Errorf("%s: request %d differs between two generations of seed 7", w.name, i)
			}
		}
	}
}

func TestOtherSeedSameShape(t *testing.T) {
	a, b := requestBodies(t, 7), requestBodies(t, 8)
	for _, w := range workloads {
		var sizeA, sizeB int
		for i := range a[w.name] {
			sizeA += len(a[w.name][i])
			sizeB += len(b[w.name][i])
		}
		if sizeA != sizeB {
			t.Errorf("%s: seeds 7 and 8 generate %d and %d request bytes", w.name, sizeA, sizeB)
		}
		if ma, mb := methods(t, w, a[w.name]), methods(t, w, b[w.name]); ma != mb {
			t.Errorf("%s: seeds 7 and 8 make different call mixes:\n%s\n%s", w.name, ma, mb)
		}
		// rpc-small, tls-reconnect and job-push send fixed calls; the
		// seed reaches them through DNs only. The rest must differ.
		fixed := w.name == "rpc-small" || w.name == "tls-reconnect" || w.name == "job-push"
		if same := bytes.Equal(bytes.Join(a[w.name], nil), bytes.Join(b[w.name], nil)); same != fixed {
			t.Errorf("%s: bodies of seeds 7 and 8 equal = %v, want %v", w.name, same, fixed)
		}
	}
	if callerDN(7, 0) == callerDN(8, 0) || callerDN(7, 0) == callerDN(7, 1) {
		t.Error("caller DNs do not depend on seed and caller")
	}
	if len(callerDN(7, 0)) != len(callerDN(8, 1)) {
		t.Error("caller DNs differ in length")
	}
}

func TestMulticallMix(t *testing.T) {
	subs, want := newGen(3, 0).multicallMix(benchGroup, "/O=a/CN=in", "/O=a/CN=out", "/O=a/CN=me")
	if len(subs) != 64 || len(want) != 64 {
		t.Fatalf("%d sub-calls, %d answers, want 64", len(subs), len(want))
	}
	count := map[string]int{}
	for _, s := range subs {
		count[s.Method]++
	}
	if count["system.ping"] != 32 || count["system.echo"] != 16 || count["vo.is_member"] != 8 || count["system.whoami"] != 8 {
		t.Errorf("mix is %v", count)
	}
}
