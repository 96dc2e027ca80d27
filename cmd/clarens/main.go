// Command clarens is the command-line client for Clarens servers.
//
// Usage:
//
//	clarens -url http://host:8080 [-proto xmlrpc|jsonrpc|soap] [-session TOKEN] <command> [args...]
//
// Commands:
//
//	methods                        list server methods
//	help <method>                  show a method's help text
//	call <method> [args...]        invoke any method (args typed by its signature, else JSON, else strings)
//	whoami                         show the authenticated DN
//	login <dn> <password>          proxy login; prints the session token
//	file ls|read|md5|stat <path>   file service operations
//	disc find <pattern>            discovery queries
//	disc servers
//	vo groups|my                   VO queries
//	shell <command line>           run a sandboxed command
//	job submit <cmd> [prio] [retries]   queue an asynchronous job
//	job status|output|cancel <id>  inspect or stop a job
//	job list [state]               list jobs (queued|running|done|failed|cancelled)
//	job stats                      scheduler counters
//	trace <id> [-local] [-json]    render a stored trace as a cross-server waterfall
//	trace search [filter-json]     list sampled traces, newest first
//	watch <query> [-n count] [-for duration]   stream push events as JSON lines
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"clarens"
)

func main() {
	var (
		url     = flag.String("url", "http://127.0.0.1:8080", "server base or endpoint URL")
		proto   = flag.String("proto", "xmlrpc", "protocol: xmlrpc, jsonrpc, soap")
		session = flag.String("session", os.Getenv("CLARENS_SESSION"), "session token (or $CLARENS_SESSION)")
		traceID = flag.String("trace", "", "stamp every call with this trace ID (X-Clarens-Trace)")
		sample  = flag.Bool("sample", false, "force-sample calls into the server's span store, retrievable later with `clarens trace <id>`")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts := []clarens.ClientOption{clarens.WithProtocol(*proto), clarens.WithSession(*session)}
	if *traceID != "" {
		opts = append(opts, clarens.WithTrace(*traceID))
	}
	if *sample {
		opts = append(opts, clarens.WithTraceSample())
	}
	c, err := clarens.Dial(*url, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	if err := run(c, args); err != nil {
		log.Fatal(err)
	}
}

func run(c *clarens.Client, args []string) error {
	switch args[0] {
	case "methods":
		methods, err := clarens.CallAs[[]string](c, "system.list_methods")
		if err != nil {
			return err
		}
		for _, m := range methods {
			fmt.Println(m)
		}
		return nil
	case "help":
		if len(args) < 2 {
			return fmt.Errorf("usage: help <method>")
		}
		help, err := clarens.CallAs[string](c, "system.method_help", args[1])
		if err != nil {
			return err
		}
		fmt.Println(help)
		return nil
	case "call":
		if len(args) < 2 {
			return fmt.Errorf("usage: call <method> [args...]")
		}
		params, err := coerceArgs(signatureOf(c, args[1]), args[2:])
		if err != nil {
			return err
		}
		result, err := c.Call(args[1], params...)
		if err != nil {
			return err
		}
		return printJSON(result)
	case "whoami":
		dn, err := clarens.CallAs[string](c, "system.whoami")
		if err != nil {
			return err
		}
		if dn == "" {
			dn = "(anonymous)"
		}
		fmt.Println(dn)
		return nil
	case "login":
		if len(args) < 3 {
			return fmt.Errorf("usage: login <dn> <password>")
		}
		dn, err := clarens.ParseDN(args[1])
		if err != nil {
			return err
		}
		token, err := c.ProxyLogin(dn, args[2])
		if err != nil {
			return err
		}
		fmt.Printf("export CLARENS_SESSION=%s\n", token)
		return nil
	case "file":
		return runFile(c, args[1:])
	case "disc":
		return runDisc(c, args[1:])
	case "vo":
		return runVO(c, args[1:])
	case "job":
		return runJob(c, args[1:])
	case "trace":
		return runTrace(c, args[1:])
	case "watch":
		return runWatch(c, args[1:])
	case "shell":
		if len(args) < 2 {
			return fmt.Errorf("usage: shell <command line>")
		}
		res, err := clarens.CallAs[map[string]any](c, "shell.cmd", args[1])
		if err != nil {
			return err
		}
		fmt.Print(res["stdout"])
		if s, _ := res["stderr"].(string); s != "" {
			fmt.Fprint(os.Stderr, s)
		}
		if code, _ := res["exit_code"].(int); code != 0 {
			os.Exit(code)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func runFile(c *clarens.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: file ls|read|md5|stat <path>")
	}
	switch args[0] {
	case "ls":
		entries, err := c.FileLs(args[1])
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if d, _ := e["is_dir"].(bool); d {
				kind = "d"
			}
			fmt.Printf("%s %10v %v\n", kind, e["size"], e["name"])
		}
		return nil
	case "read":
		data, err := c.FileReadAll(args[1])
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	case "md5":
		sum, err := clarens.CallAs[string](c, "file.md5", args[1])
		if err != nil {
			return err
		}
		fmt.Println(sum)
		return nil
	case "stat":
		st, err := clarens.CallAs[map[string]any](c, "file.stat", args[1])
		if err != nil {
			return err
		}
		return printJSON(st)
	default:
		return fmt.Errorf("unknown file command %q", args[0])
	}
}

func runDisc(c *clarens.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: disc find <pattern> | disc servers")
	}
	switch args[0] {
	case "find":
		pattern := "*"
		if len(args) > 1 {
			pattern = args[1]
		}
		entries, err := c.Discover(pattern)
		if err != nil {
			return err
		}
		return printJSON(entries)
	case "servers":
		servers, err := clarens.CallAs[[]string](c, "discovery.servers")
		if err != nil {
			return err
		}
		for _, s := range servers {
			fmt.Println(s)
		}
		return nil
	default:
		return fmt.Errorf("unknown disc command %q", args[0])
	}
}

func runVO(c *clarens.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: vo groups | vo my")
	}
	switch args[0] {
	case "groups":
		groups, err := clarens.CallAs[[]string](c, "vo.groups")
		if err != nil {
			return err
		}
		for _, g := range groups {
			fmt.Println(g)
		}
		return nil
	case "my":
		groups, err := clarens.CallAs[[]string](c, "vo.my_groups")
		if err != nil {
			return err
		}
		for _, g := range groups {
			fmt.Println(g)
		}
		return nil
	default:
		return fmt.Errorf("unknown vo command %q", args[0])
	}
}

func runJob(c *clarens.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: job submit|status|output|cancel|list|stats ...")
	}
	switch args[0] {
	case "submit":
		if len(args) < 2 {
			return fmt.Errorf("usage: job submit <command line> [priority] [max_retries]")
		}
		if len(args) > 4 {
			return fmt.Errorf("usage: job submit <command line> [priority] [max_retries]")
		}
		params, err := coerceArgs(signatureOf(c, "job.submit"), args[1:])
		if err != nil {
			return fmt.Errorf("job submit: %v", err)
		}
		id, err := clarens.CallAs[string](c, "job.submit", params...)
		if err != nil {
			return err
		}
		fmt.Println(id)
		return nil
	case "status":
		if len(args) < 2 {
			return fmt.Errorf("usage: job status <id>")
		}
		st, err := clarens.CallAs[map[string]any](c, "job.status", args[1])
		if err != nil {
			return err
		}
		return printJSON(st)
	case "output":
		if len(args) < 2 {
			return fmt.Errorf("usage: job output <id>")
		}
		// Outputs past the server's inline limit stream straight from
		// their staged artifacts to stdout/stderr — never buffered whole.
		out, err := c.JobOutputHead(args[1])
		if err != nil {
			return err
		}
		streamed := map[string]bool{}
		if out.Truncated {
			for _, a := range out.Artifacts {
				switch a.Name {
				case "stdout":
					if _, err := c.FetchFile(a.Path, 0, os.Stdout); err != nil {
						return err
					}
				case "stderr":
					if _, err := c.FetchFile(a.Path, 0, os.Stderr); err != nil {
						return err
					}
				default:
					continue
				}
				streamed[a.Name] = true
				if a.Partial {
					fmt.Fprintf(os.Stderr, "[%s cut at the server's spool limit: first %d bytes only]\n", a.Name, a.Size)
				}
			}
		}
		if !streamed["stdout"] && out.Stdout != "" {
			fmt.Print(out.Stdout)
		}
		if !streamed["stderr"] && out.Stderr != "" {
			fmt.Fprint(os.Stderr, out.Stderr)
		}
		for _, a := range out.Artifacts {
			if a.Name != "stdout" && a.Name != "stderr" {
				fmt.Fprintf(os.Stderr, "[artifact %s: %s, %d bytes, md5 %s]\n", a.Name, a.Path, a.Size, a.MD5)
			}
		}
		if out.ExitCode != 0 {
			os.Exit(out.ExitCode)
		}
		return nil
	case "cancel":
		if len(args) < 2 {
			return fmt.Errorf("usage: job cancel <id>")
		}
		changed, err := clarens.CallAs[bool](c, "job.cancel", args[1])
		if err != nil {
			return err
		}
		if changed {
			fmt.Println("cancelled")
		} else {
			fmt.Println("already finished")
		}
		return nil
	case "list":
		params := []any{}
		if len(args) > 1 {
			params = append(params, args[1])
		}
		jobs, err := clarens.CallAs[[]any](c, "job.list", params...)
		if err != nil {
			return err
		}
		for _, e := range jobs {
			j, _ := e.(map[string]any)
			fmt.Printf("%-30v %-10v %3v %v\n", j["id"], j["state"], j["exit_code"], j["command"])
		}
		return nil
	case "stats":
		st, err := clarens.CallAs[map[string]any](c, "job.stats")
		if err != nil {
			return err
		}
		return printJSON(st)
	default:
		return fmt.Errorf("unknown job command %q", args[0])
	}
}

// runTrace fetches a stored trace and renders it as a waterfall: one
// line per span, indented by call depth, with a proportional time bar —
// for federated traces the merged tree spans every server the request
// touched. `trace search` lists sampled traces instead.
func runTrace(c *clarens.Client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trace <id> [-local] [-json] | trace search [filter-json]")
	}
	if args[0] == "search" {
		filter := map[string]any{}
		if len(args) > 1 {
			if err := json.Unmarshal([]byte(args[1]), &filter); err != nil {
				return fmt.Errorf("trace search: filter must be a JSON object: %v", err)
			}
		}
		rows, err := clarens.CallAs[[]any](c, "trace.search", filter)
		if err != nil {
			return err
		}
		for _, e := range rows {
			m, _ := e.(map[string]any)
			servers, _ := m["servers"].([]any)
			fmt.Printf("%v  %-24v %9.1fms %3.0f spans  fault=%.0f  %v\n",
				m["trace"], m["method"], num(m["dur_ms"]), num(m["spans"]), num(m["fault"]), servers)
		}
		return nil
	}
	id := args[0]
	localOnly, asJSON := false, false
	for _, a := range args[1:] {
		switch a {
		case "-local":
			localOnly = true
		case "-json":
			asJSON = true
		default:
			return fmt.Errorf("trace: unknown option %q", a)
		}
	}
	doc, err := clarens.CallAs[map[string]any](c, "trace.get", id, localOnly)
	if err != nil {
		return err
	}
	if asJSON {
		return printJSON(doc)
	}
	return renderWaterfall(doc)
}

// traceSpan is the subset of the trace.get span map the waterfall needs.
type traceSpan struct {
	method, server string
	startMS, durMS float64
	fault, depth   int
}

// renderWaterfall prints one merged trace document as an aligned
// waterfall: span rows sorted by start time, a bar per span positioned
// proportionally within the trace's wall-clock window.
func renderWaterfall(doc map[string]any) error {
	raw, _ := doc["spans"].([]any)
	spans := make([]traceSpan, 0, len(raw))
	labelWidth := 0
	for _, e := range raw {
		m, ok := e.(map[string]any)
		if !ok {
			continue
		}
		sp := traceSpan{
			startMS: num(m["start_ms"]),
			durMS:   num(m["dur_ms"]),
			fault:   int(num(m["fault"])),
			depth:   int(num(m["depth"])),
		}
		sp.method, _ = m["method"].(string)
		sp.server, _ = m["server"].(string)
		if sp.server == "" {
			sp.server = "?"
		}
		if w := 2*sp.depth + len(sp.method) + len(sp.server) + 1; w > labelWidth {
			labelWidth = w
		}
		spans = append(spans, sp)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %v has no spans", doc["trace"])
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].startMS != spans[j].startMS {
			return spans[i].startMS < spans[j].startMS
		}
		return spans[i].depth < spans[j].depth
	})
	t0, end := spans[0].startMS, 0.0
	for _, sp := range spans {
		if e := sp.startMS + sp.durMS; e > end {
			end = e
		}
	}
	total := end - t0
	if total <= 0 {
		total = 1
	}
	servers, _ := doc["servers"].([]any)
	fmt.Printf("trace %v  %d spans on %d server(s) %v  total %.2fms\n",
		doc["trace"], len(spans), len(servers), servers, total)
	const width = 32
	for _, sp := range spans {
		startCol := int((sp.startMS - t0) / total * width)
		barLen := int(sp.durMS / total * float64(width))
		if barLen < 1 {
			barLen = 1
		}
		if startCol > width-1 {
			startCol = width - 1
		}
		if startCol+barLen > width {
			barLen = width - startCol
		}
		bar := strings.Repeat(".", startCol) + strings.Repeat("#", barLen) +
			strings.Repeat(".", width-startCol-barLen)
		label := strings.Repeat("  ", sp.depth) + sp.method + "@" + sp.server
		mark := ""
		if sp.fault != 0 {
			mark = fmt.Sprintf("  FAULT %d", sp.fault)
		}
		fmt.Printf("  %-*s %9.2fms  [%s]%s\n", labelWidth, label, sp.durMS, bar, mark)
	}
	if errs, ok := doc["errors"].([]any); ok && len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  peer fetch failed: %v\n", e)
		}
	}
	return nil
}

// num coerces the codec's numeric shapes (int over XML-RPC, float64
// over JSON-RPC) to float64; anything else is 0.
func num(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// signatureOf returns the method's system.method_signature entries, or
// nil when the lookup fails. The lookup is not part of the user's call,
// so it carries neither the client's trace ID nor its sample flag.
func signatureOf(c *clarens.Client, method string) []string {
	trace, sample := c.Trace(), c.TraceSampling()
	c.SetTrace("")
	c.SetTraceSample(false)
	sig, _ := clarens.CallAs[[]string](c, "system.method_signature", method)
	c.SetTrace(trace)
	c.SetTraceSample(sample)
	return sig
}

// coerceArgs converts CLI arguments to parameters by the method's
// signature: string and base64 parameters are sent raw, int and boolean
// ones parsed, and the rest (any, array, struct, or a parameter no
// signature entry reaches) go through parseArg.
func coerceArgs(sig, args []string) ([]any, error) {
	params := make([]any, len(args))
	for i, a := range args {
		switch paramType(sig, i) {
		case "string", "base64":
			params[i] = a
		case "int":
			n, err := strconv.Atoi(a)
			if err != nil {
				return nil, fmt.Errorf("argument %d: %q is not an integer", i+1, a)
			}
			params[i] = n
		case "boolean":
			b, err := strconv.ParseBool(a)
			if err != nil {
				return nil, fmt.Errorf("argument %d: %q is not a boolean", i+1, a)
			}
			params[i] = b
		default:
			params[i] = parseArg(a)
		}
	}
	return params, nil
}

// paramType is parameter i's type in the first signature entry that
// has one ("" when none does).
func paramType(sig []string, i int) string {
	for _, entry := range sig {
		if f := strings.Fields(entry); i+1 < len(f) {
			return f[i+1]
		}
	}
	return ""
}

// parseArg interprets a CLI argument as JSON when possible, falling back
// to a raw string (so `call system.echo 42` sends an int, and
// `call system.echo hello` sends a string).
func parseArg(s string) any {
	var v any
	if err := json.Unmarshal([]byte(s), &v); err == nil {
		if f, ok := v.(float64); ok && f == float64(int(f)) {
			return int(f)
		}
		return v
	}
	return s
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonSafe(v))
}

// jsonSafe converts []byte results to strings for readable output.
func jsonSafe(v any) any {
	switch x := v.(type) {
	case []byte:
		return string(x)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = jsonSafe(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = jsonSafe(e)
		}
		return out
	default:
		return v
	}
}

// runWatch streams push events matching a query to stdout, one JSON
// object per line, until interrupted (or -n events / -for duration for
// bounded runs, e.g. in scripts and smoke tests).
func runWatch(c *clarens.Client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: watch <query> [-n count] [-for duration]")
	}
	query := args[0]
	count := 0
	var timeout time.Duration
	for i := 1; i < len(args); i++ {
		switch args[i] {
		case "-n":
			if i+1 >= len(args) {
				return fmt.Errorf("watch: -n needs a value")
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil {
				return fmt.Errorf("watch: -n %q: %v", args[i+1], err)
			}
			count = n
			i++
		case "-for":
			if i+1 >= len(args) {
				return fmt.Errorf("watch: -for needs a value")
			}
			d, err := time.ParseDuration(args[i+1])
			if err != nil {
				return fmt.Errorf("watch: -for %q: %v", args[i+1], err)
			}
			timeout = d
			i++
		default:
			return fmt.Errorf("watch: unknown option %q", args[i])
		}
	}
	sub, err := c.Subscribe(query)
	if err != nil {
		return err
	}
	defer sub.Close()
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	enc := json.NewEncoder(os.Stdout)
	seen := 0
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return sub.Err()
			}
			if err := enc.Encode(ev); err != nil {
				return err
			}
			seen++
			if count > 0 && seen >= count {
				return nil
			}
		case <-expire:
			return nil
		}
	}
}
