// Package baseline implements a Globus Toolkit 3-style web-service
// container used as the performance comparator in experiment E3
// (BenchmarkBaselineGT3*). The paper (§4 footnote, §5) reports that
// invoking "a trivial method 100 times ... across a 100 Mbps LAN using
// GTK 3.0 and GTK 3.9.1 resulted in 5 to 1 calls per second", versus
// ~1450/s for Clarens — roughly three orders of magnitude.
//
// This is a SUBSTITUTION (README "Substitutions"): real GT3 cannot be
// run in this reproduction, so the container reproduces GT3's
// *documented* per-call cost structure — the sources of overhead
// identified at the time by the Globus/OGSA performance literature —
// rather than its exact code:
//
//  1. WS-Security-style message-level security: per call, the full
//     request document is canonicalized and digested, a signature block
//     is verified (modeled by repeated SHA-256 passes + an RSA-like
//     modular exponentiation stand-in), and the response is signed the
//     same way. GT3 message security dominated its per-call time.
//  2. Full XML DOM parse + schema re-validation of the SOAP envelope on
//     every call (no parser/schema caching), modeled by N parse passes.
//  3. OGSA service-factory semantics: a fresh service instance (with
//     reflection-style handler lookup under a global container lock) is
//     created per call — no handler caching.
//  4. Grid-mapfile authorization: a linear scan over the grid-map on
//     every call (no session cache, unlike Clarens).
//
// Each knob is a tunable Cost so the E3 bench can also sweep an ablation
// (which overhead dominates). Defaults are calibrated so that commodity
// hardware lands in the low single-digit to tens of calls/second —
// preserving the paper's *shape* (orders-of-magnitude gap), not a claim
// of cycle-accuracy.
package baseline

import (
	"bytes"
	"crypto/sha256"
	"encoding/xml"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strings"
	"sync"

	"clarens/internal/rpc"
	"clarens/internal/rpc/soaprpc"
)

// Costs control the per-call overhead knobs.
type Costs struct {
	// SecurityRounds is the number of canonicalize+digest passes per
	// message direction (request verify + response sign).
	SecurityRounds int
	// ModExpBits sizes the RSA-like modular exponentiation performed per
	// signature reference per direction (0 disables).
	ModExpBits int
	// Signatures is the number of signed references per message direction
	// (WS-Security typically signed Body, Timestamp, and the security
	// token separately).
	Signatures int
	// ParsePasses is how many times the envelope is re-parsed (DOM pass +
	// schema validation pass + dispatch pass in GT3).
	ParsePasses int
	// GridMapEntries is the size of the grid-mapfile scanned per call.
	GridMapEntries int
	// FactoryAllocKB is the per-call service-instance allocation, modeling
	// OGSA factory instantiation.
	FactoryAllocKB int
}

// DefaultCosts reflects GT3.0-era behavior (all overheads on).
func DefaultCosts() Costs {
	return Costs{
		SecurityRounds: 600,
		ModExpBits:     2048,
		Signatures:     3,
		ParsePasses:    3,
		GridMapEntries: 2000,
		FactoryAllocKB: 256,
	}
}

// LightCosts reflects GTK 3.9.1-era improvements (the paper's "5 to 1"
// range spans both): security retained, fewer redundant passes.
func LightCosts() Costs {
	return Costs{
		SecurityRounds: 120,
		ModExpBits:     2048,
		Signatures:     1,
		ParsePasses:    2,
		GridMapEntries: 2000,
		FactoryAllocKB: 64,
	}
}

// NoCosts disables all modeled overheads (ablation floor).
func NoCosts() Costs { return Costs{} }

// Handler is a baseline service method.
type Handler func(params []any) (any, error)

// Container is the GT3-like SOAP-only container.
type Container struct {
	mu       sync.Mutex // the global container lock (GT3 dispatch was serialized per service)
	services map[string]Handler
	costs    Costs
	gridMap  []string

	// modulus/exponent for the RSA-like stand-in.
	modulus *big.Int
	base    *big.Int
}

// NewContainer creates a container with the given cost model.
func NewContainer(costs Costs) *Container {
	c := &Container{
		services: make(map[string]Handler),
		costs:    costs,
	}
	for i := 0; i < costs.GridMapEntries; i++ {
		c.gridMap = append(c.gridMap, fmt.Sprintf(`"/O=grid/OU=People/CN=User %05d" user%05d`, i, i))
	}
	if costs.ModExpBits > 0 {
		one := big.NewInt(1)
		c.modulus = new(big.Int).Sub(new(big.Int).Lsh(one, uint(costs.ModExpBits)), big.NewInt(159))
		c.base = big.NewInt(65537)
	}
	return c
}

// Register adds a method (full dotted name) to the container.
func (c *Container) Register(name string, h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.services[name] = h
}

// messageSecurity models WS-Security processing of one message direction.
func (c *Container) messageSecurity(doc []byte) {
	sum := sha256.Sum256(doc)
	for i := 0; i < c.costs.SecurityRounds; i++ {
		// canonicalization pass (copy) + digest, as XML-DSig requires
		canon := append([]byte(nil), doc...)
		for j := range canon {
			if canon[j] == '\r' {
				canon[j] = '\n'
			}
		}
		h := sha256.New()
		h.Write(sum[:])
		h.Write(canon[:min(len(canon), 1024)])
		copy(sum[:], h.Sum(nil))
	}
	if c.modulus != nil {
		// An RSA private-key operation uses a full-width private exponent;
		// expand the digest to modulus width so each modexp costs what a
		// real WS-Security signature did. One modexp per signed reference.
		sigs := c.costs.Signatures
		if sigs < 1 {
			sigs = 1
		}
		for s := 0; s < sigs; s++ {
			expBytes := make([]byte, 0, c.costs.ModExpBits/8)
			block := sha256.Sum256(append(sum[:], byte(s)))
			for len(expBytes) < c.costs.ModExpBits/8 {
				block = sha256.Sum256(block[:])
				expBytes = append(expBytes, block[:]...)
			}
			exp := new(big.Int).SetBytes(expBytes[:c.costs.ModExpBits/8])
			new(big.Int).Exp(c.base, exp, c.modulus)
		}
	}
}

// parseValidate models the DOM + schema validation passes.
func (c *Container) parseValidate(doc []byte) error {
	for i := 0; i < c.costs.ParsePasses; i++ {
		dec := xml.NewDecoder(bytes.NewReader(doc))
		depth := 0
		for {
			tok, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			switch tok.(type) {
			case xml.StartElement:
				depth++
			case xml.EndElement:
				depth--
			}
		}
		if depth != 0 {
			return fmt.Errorf("baseline: unbalanced document")
		}
	}
	return nil
}

// gridMapScan models grid-mapfile authorization: a linear scan.
func (c *Container) gridMapScan(dn string) bool {
	needle := `"` + dn + `"`
	found := false
	for _, line := range c.gridMap {
		if strings.HasPrefix(line, needle) {
			found = true // keep scanning: GT3 read the whole file
		}
	}
	return found || dn == "" // anonymous allowed for the trivial method
}

// factoryInstantiate models OGSA per-call service instance creation.
func (c *Container) factoryInstantiate() []byte {
	if c.costs.FactoryAllocKB == 0 {
		return nil
	}
	inst := make([]byte, c.costs.FactoryAllocKB*1024)
	for i := 0; i < len(inst); i += 4096 {
		inst[i] = byte(i) // touch pages
	}
	return inst
}

var soapCodec = soaprpc.New()

// ServeHTTP implements the container endpoint (SOAP only, like GT3).
func (c *Container) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint", http.StatusMethodNotAllowed)
		return
	}
	doc, err := io.ReadAll(io.LimitReader(r.Body, 10<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := c.Invoke(doc, r.Header.Get("X-Baseline-DN"))
	w.Header().Set("Content-Type", "application/soap+xml; charset=utf-8")
	var buf bytes.Buffer
	if err := soapCodec.EncodeResponse(&buf, resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Sign the response (second message-security direction).
	c.messageSecurity(buf.Bytes())
	w.Write(buf.Bytes())
}

// Invoke runs the full GT3-like pipeline on a raw SOAP document.
func (c *Container) Invoke(doc []byte, dn string) *rpc.Response {
	// 1. message-level security (verify).
	c.messageSecurity(doc)
	// 2. DOM + schema validation passes.
	if err := c.parseValidate(doc); err != nil {
		return &rpc.Response{Fault: &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}}
	}
	req, err := soapCodec.DecodeRequest(bytes.NewReader(doc))
	if err != nil {
		f, ok := err.(*rpc.Fault)
		if !ok {
			f = &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
		}
		return &rpc.Response{Fault: f}
	}
	// 3. grid-map authorization scan.
	if !c.gridMapScan(dn) {
		return &rpc.Response{Fault: &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "not in grid-mapfile"}}
	}
	// 4. service factory instantiation under the container lock.
	c.mu.Lock()
	h, ok := c.services[req.Method]
	inst := c.factoryInstantiate()
	c.mu.Unlock()
	_ = inst
	if !ok {
		return &rpc.Response{Fault: &rpc.Fault{Code: rpc.CodeMethodNotFound, Message: "no such service " + req.Method}}
	}
	result, err := h(req.Params)
	if err != nil {
		return &rpc.Response{Fault: &rpc.Fault{Code: rpc.CodeApplication, Message: err.Error()}}
	}
	norm, err := rpc.Normalize(result)
	if err != nil {
		return &rpc.Response{Fault: &rpc.Fault{Code: rpc.CodeInternal, Message: err.Error()}}
	}
	return &rpc.Response{Result: norm}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
