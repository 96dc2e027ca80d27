// Quickstart: start a Clarens server, register a custom web service and a
// dispatch interceptor, and invoke the service over all three wire
// protocols (XML-RPC, JSON-RPC, SOAP) — one call at a time and batched
// through system.multicall.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"

	"clarens"
)

// mathService is a minimal custom service: module "math" with two methods.
// Any type implementing clarens.Service can be registered.
type mathService struct{}

func (mathService) Name() string { return "math" }

func (mathService) Methods() []clarens.Method {
	return []clarens.Method{
		{
			Name:      "math.add",
			Help:      "Add a list of integers.",
			Signature: []string{"int array"},
			Public:    true,
			Handler: func(ctx *clarens.Context, p clarens.Params) (any, error) {
				if len(p) != 1 {
					return nil, fmt.Errorf("math.add wants one array parameter")
				}
				nums, ok := p[0].([]any)
				if !ok {
					return nil, fmt.Errorf("math.add wants an array")
				}
				sum := 0
				for _, n := range nums {
					i, ok := n.(int)
					if !ok {
						return nil, fmt.Errorf("math.add: %v is not an integer", n)
					}
					sum += i
				}
				return sum, nil
			},
		},
		{
			Name:      "math.mean",
			Help:      "Arithmetic mean of a list of numbers.",
			Signature: []string{"double array"},
			Public:    true,
			Handler: func(ctx *clarens.Context, p clarens.Params) (any, error) {
				nums, ok := p[0].([]any)
				if !ok || len(nums) == 0 {
					return nil, fmt.Errorf("math.mean wants a non-empty array")
				}
				sum := 0.0
				for _, n := range nums {
					switch v := n.(type) {
					case int:
						sum += float64(v)
					case float64:
						sum += v
					default:
						return nil, fmt.Errorf("math.mean: %v is not a number", n)
					}
				}
				return sum / float64(len(nums)), nil
			},
		},
	}
}

func main() {
	// 1. A server with the built-in services; in-memory state.
	srv, err := clarens.NewServer(clarens.Config{Name: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// 2. Register the custom service and open it to everyone.
	if err := srv.Register(mathService{}); err != nil {
		log.Fatal(err)
	}
	if err := srv.Core().MethodACL().Set("math", &clarens.ACL{
		AllowDNs: []string{clarens.EntryAny, clarens.EntryAnonymous},
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Observe every dispatched call with a custom interceptor — the
	// same mechanism the framework's own auth, ACL, and trace stages use.
	// Interceptors run concurrently across requests, hence the atomic.
	var dispatched atomic.Int64
	srv.Use(func(next clarens.Handler) clarens.Handler {
		return func(ctx *clarens.Context, p clarens.Params) (any, error) {
			dispatched.Add(1)
			return next(ctx, p)
		}
	})

	// 4. Serve on an ephemeral port.
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %s\n", srv.URL())

	// 5. Call it over each protocol.
	for _, proto := range []string{"xmlrpc", "jsonrpc", "soap"} {
		c, err := clarens.Dial(srv.URL(), clarens.WithProtocol(proto))
		if err != nil {
			log.Fatal(err)
		}
		sum, err := c.CallInt("math.add", []any{1, 2, 3, 4, 5})
		if err != nil {
			log.Fatalf("%s math.add: %v", proto, err)
		}
		mean, err := c.Call("math.mean", []any{1.5, 2.5, 3.5})
		if err != nil {
			log.Fatalf("%s math.mean: %v", proto, err)
		}
		fmt.Printf("%-8s math.add(1..5) = %d, math.mean = %v\n", proto, sum, mean)
		c.Close()
	}

	// 6. Batch several calls into one system.multicall round trip; each
	// sub-call is ACL-checked and fault-isolated independently.
	c, _ := clarens.Dial(srv.URL())
	defer c.Close()
	results, err := c.Batch().
		Add("math.add", []any{10, 20, 30}).
		Add("math.mean", []any{1.5, 2.5, 3.5}).
		Add("math.divide", []any{1, 0}). // no such method: faults alone
		Add("system.version").
		Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Printf("batched %-14s fault: %v\n", r.Method, r.Err)
		} else {
			fmt.Printf("batched %-14s = %v\n", r.Method, r.Result)
		}
	}

	// 7. Introspection, like any Clarens client would do.
	methods, err := c.CallStringList("system.list_methods")
	if err != nil {
		log.Fatal(err)
	}
	var mine []string
	for _, m := range methods {
		if strings.HasPrefix(m, "math.") {
			mine = append(mine, m)
		}
	}
	fmt.Printf("registered methods: %d total, custom: %v\n", len(methods), mine)
	help, _ := c.CallString("system.method_help", "math.add")
	fmt.Printf("math.add help: %s\n", help)
	fmt.Printf("interceptor observed %d dispatched calls (multicall sub-calls included)\n", dispatched.Load())
}
