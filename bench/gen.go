package main

import (
	"fmt"
	"math/rand"

	"clarens/internal/rpc"
)

// gen derives every generated input of a run — payloads, DNs, call
// order — from the run seed. Strings have fixed lengths and numbers a
// fixed number of digits, so two seeds give different bytes of the same
// size and a claim can be re-checked on an unused seed.
type gen struct{ r *rand.Rand }

// newGen returns the generator of one stream of a seed; callers and
// fixtures take different streams so adding one does not shift another.
func newGen(seed int64, stream int) *gen {
	return &gen{r: rand.New(rand.NewSource(seed*1000003 + int64(stream)))}
}

const letters = "abcdefghijklmnopqrstuvwxyz"

func (g *gen) word(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[g.r.Intn(len(letters))]
	}
	return string(b)
}

// dn is a grid user DN under the benchmark organisation.
func (g *gen) dn() string { return "/O=bench/OU=People/CN=user " + g.word(10) }

// rowCount is the array length of the rpc-large payload.
const rowCount = 64

// rows is the rpc-large payload: an analysis-style result table of
// rowCount structs {run:int, lfn:string, size:double, ok:bool, tags:[3]}.
func (g *gen) rows() []any {
	out := make([]any, rowCount)
	for i := range out {
		out[i] = map[string]any{
			"run":  100000 + g.r.Intn(900000),
			"lfn":  "/store/data/" + g.word(12) + "/" + g.word(8) + ".root",
			"size": float64(100000+g.r.Intn(900000)) + 0.5,
			"ok":   g.r.Intn(2) == 1,
			"tags": []any{g.word(6), g.word(6), g.word(6)},
		}
	}
	return out
}

// Sub-call mix of one portal-multicall batch.
const (
	mixPing     = 32
	mixEcho     = 16
	mixIsMember = 8
	mixWhoami   = 8
	mixTotal    = mixPing + mixEcho + mixIsMember + mixWhoami
)

// multicallMix is the seeded order of one portal page load's sub-calls;
// member and outsider are the DNs vo.is_member is asked about, and the
// answer expected for each entry is returned beside it.
func (g *gen) multicallMix(group, member, outsider, self string) (calls []rpc.SubCall, want []any) {
	calls = make([]rpc.SubCall, 0, mixTotal)
	want = make([]any, 0, mixTotal)
	for i := 0; i < mixPing; i++ {
		calls = append(calls, rpc.SubCall{Method: "system.ping"})
		want = append(want, "pong")
	}
	for i := 0; i < mixEcho; i++ {
		s := g.word(8)
		calls = append(calls, rpc.SubCall{Method: "system.echo", Params: []any{s}})
		want = append(want, s)
	}
	for i := 0; i < mixIsMember; i++ {
		dn, in := member, true
		if i%2 == 1 {
			dn, in = outsider, false
		}
		calls = append(calls, rpc.SubCall{Method: "vo.is_member", Params: []any{group, dn}})
		want = append(want, in)
	}
	for i := 0; i < mixWhoami; i++ {
		calls = append(calls, rpc.SubCall{Method: "system.whoami"})
		want = append(want, self)
	}
	g.r.Shuffle(len(calls), func(i, j int) {
		calls[i], calls[j] = calls[j], calls[i]
		want[i], want[j] = want[j], want[i]
	})
	return calls, want
}

// Kinds of call in one state-churn cycle: 80% reads, 20% writes.
const (
	churnIsMember = iota
	churnListMethods
	churnEcho
	churnMemberWrite // vo.add_member and vo.remove_member alternating
	churnACLSet
)

// churnCycle is the seeded order of the fixed 10-call state-churn cycle.
func (g *gen) churnCycle() []int {
	c := []int{
		churnIsMember, churnIsMember, churnIsMember, churnIsMember,
		churnListMethods, churnListMethods,
		churnEcho, churnEcho,
		churnMemberWrite,
		churnACLSet,
	}
	g.r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}

// aclPaths is how many method-ACL paths a state-churn caller rotates
// its acl.set over.
const aclPaths = 8

func aclPath(caller, k int) string { return fmt.Sprintf("benchacl.c%d.p%d", caller, k%aclPaths) }
