package clarens

import (
	"fmt"
	"strings"
	"testing"
)

// methodTable is every method of a server with all services on, with its
// system.method_signature (entries joined by " | ") and system.method_help.
// It is the discovery surface browser and Python clients build their UI
// from; a change to how methods are declared must leave it byte-identical.
var methodTable = []struct{ name, sig, help string }{
	{"acl.check", "struct string string", "Evaluate whether a DN may invoke a method; returns the decision and the hierarchy level that decided."},
	{"acl.delete", "boolean string", "Remove the ACL attached at a path."},
	{"acl.get", "struct string", "Return the ACL attached exactly at a path, or an empty struct."},
	{"acl.list", "array", "List all paths with attached ACLs."},
	{"acl.set", "boolean string string array array array array", "Attach an ACL to a method hierarchy path. Parameters: path, order (\"allow,deny\"|\"deny,allow\"), allow DNs, allow groups, deny DNs, deny groups."},
	{"discovery.deregister", "int", "Publish zero-TTL entries for this server, removing it from caches at the next purge."},
	{"discovery.find", "array string", "Find services by name pattern (glob on \"server/service\"); returns entries {server, url, service, methods, version, expires}."},
	{"discovery.methods", "array string string", "Return the methods advertised for a server/service entry."},
	{"discovery.register", "int string", "Publish every locally registered service module to the discovery network; returns the number of entries published."},
	{"discovery.servers", "array", "List the distinct server names present in the discovery cache."},
	{"file.del_acl", "boolean string", "Remove the ACL entry at a path. Administrators only."},
	{"file.find", "array string string", "Recursively find files under `dir` whose base name matches the glob `pattern`."},
	{"file.get_acl", "struct string", "Return the ACL entry attached at a path. Administrators only."},
	{"file.ls", "array string", "List a directory; returns an array of {name, size, is_dir, mtime} structs."},
	{"file.md5", "string string", "Return the hex MD5 digest of a file, for integrity checking."},
	{"file.mkdir", "boolean string", "Create a directory (and missing parents)."},
	{"file.read", "struct string int int", "Read up to `length` bytes from `name` starting at `offset`; returns {data, eof, size}. length -1 reads to EOF (capped per call); eof tells chunk-iterating clients when to stop without a zero-byte probe."},
	{"file.rm", "boolean string", "Remove a file or empty directory."},
	{"file.set_acl", "boolean string string string array array array array", "Attach a read or write ACL to a path. Parameters: path, kind (read|write), order, allow DNs, allow groups, deny DNs, deny groups. Administrators only."},
	{"file.size", "int string", "Return the size of a file in bytes."},
	{"file.stat", "struct string", "Return {name, size, is_dir, mtime} for a path."},
	{"file.write", "int string base64 int", "Write binary data to `name` at `offset` (-1 appends), creating the file if needed; returns bytes written."},
	{"job.cancel", "boolean string", "Cancel a job: queued jobs stop immediately, running jobs when the current attempt returns, remote jobs on the executing peer. Returns whether anything changed."},
	{"job.delete", "boolean string", "Delete a terminal job record and its staged artifacts (owner or server admin only); returns true."},
	{"job.list", "array string", "List the caller's jobs, oldest first; optional state filter (queued|running|done|failed|cancelled). Server admins see all jobs."},
	{"job.output", "struct string", "Return {stdout, stderr, exit_code, state, truncated, artifacts} for a job (owner or server admin only). stdout/stderr are bounded heads; when truncated, the artifacts array references the full streams for file.read / HTTP GET fetching. Jobs executing on a federation peer are proxied transparently."},
	{"job.stats", "struct", "Scheduler counters: queue depth, running, remote, terminal counts, workers, throughput. Public so federation peers can poll load."},
	{"job.status", "struct string", "Return a job's full status record by id (owner or server admin only)."},
	{"job.submit", "string string int int array", "Queue a sandboxed command for asynchronous execution: submit(command, [priority], [max_retries], [collect_globs]); returns the job id. collect_globs name sandbox files to stage as artifacts after a successful run."},
	{"job.wait", "struct string int", "Block until a job reaches a terminal state or timeout_s elapses (default 30, max 600); returns the status record: wait(id, [timeout_s])."},
	{"message.ack", "boolean string", "Acknowledge (delete) a delivered message by id."},
	{"message.count", "int", "Number of messages queued for the caller."},
	{"message.poll", "array int", "Return (and keep) the caller's queued messages, oldest first. Optional parameter: max count."},
	{"message.send", "string string string string", "Queue a message for a DN: send(to_dn, subject, body); returns the message id."},
	{"message.wait", "array int int", "Long-poll: like message.poll but blocks up to `timeout_ms` for a message to arrive."},
	{"proxy.attach", "boolean string", "Attach the stored proxy to the current session (renewal / delegation for sessions started without a proxy)."},
	{"proxy.check_delegation", "boolean string string", "Validate and consume a one-time delegation secret minted by this server: check_delegation(dn, secret). Called back by peer servers during delegated login."},
	{"proxy.delegate", "string int", "Mint a one-time delegation secret for the caller's DN, valid ttl_s seconds (default 120): delegate([ttl_s]). Present it to a peer server's proxy.login_delegated to act as the caller there."},
	{"proxy.delete", "boolean string", "Delete the caller's stored proxy (requires the password)."},
	{"proxy.info", "struct", "Return {stored, expires} metadata for the caller's stored proxy."},
	{"proxy.login", "string string string", "Create a session knowing only a DN and the proxy password; returns the session token."},
	{"proxy.login_delegated", "string string string string", "Create a session for dn from a delegation secret: login_delegated(dn, secret, [issuer_url]). With an issuer URL the secret is verified by calling the issuer back (the issuer must be on this server's configured allowlist); without one the secret must have been minted locally. Returns the session token."},
	{"proxy.retrieve", "base64 string string", "Retrieve the caller's stored proxy PEM bundle with the password used to store it (delegation: administrators may retrieve any DN's proxy with its password)."},
	{"proxy.store", "boolean base64 string", "Store a proxy credential (PEM bundle: proxy cert, chain, unencrypted key) sealed under a password. The proxy subject must match the caller or the caller must be an administrator."},
	{"shell.cmd", "struct string", "Execute a command line in the caller's sandbox as the mapped local user; returns {stdout, stderr, exit_code, user, sandbox}."},
	{"shell.cmd_info", "struct", "Return the caller's mapped local user, sandbox top directory (usable with file.* methods), and the available commands."},
	{"shell.whoami_local", "string", "Return the local system user the caller's DN maps to."},
	{"system.auth", "string", "Establish a server-side session for the TLS-authenticated caller; returns the session token."},
	{"system.echo", "any any", "Return the first parameter unchanged; the trivial method used in cross-framework comparisons."},
	{"system.health", "struct", "Liveness and readiness summary: overall status, uptime, version, and the result of each registered health check."},
	{"system.list_methods", "array", "List the names of all methods registered on this server."},
	{"system.logout", "boolean", "Destroy the current session."},
	{"system.method_help", "string string", "Return the help string for a method."},
	{"system.method_signature", "array string", "Return the signature list for a method."},
	{"system.multicall", "array array", "Execute an array of {methodName, params} sub-calls in one request; returns one entry per sub-call: a one-element array wrapping the result, or a {faultCode, faultString} struct."},
	{"system.ping", "string", "Liveness probe; returns the string \"pong\"."},
	{"system.stats", "struct", "Return dispatch counters: requests, faults, uptime seconds, per-method counts and latency quantiles, plus per-service sections (queue depths, peer health)."},
	{"system.time", "dateTime.iso8601", "Return the server's current UTC time."},
	{"system.version", "string", "Return the server version string."},
	{"system.whoami", "string", "Return the caller's authenticated distinguished name (empty if anonymous)."},
	{"trace.get", "struct string | struct string boolean", "Return the stored span tree of one trace. Unless the optional local_only flag is true, the server fans out to the peers the trace was forwarded to and merges their spans into one tree."},
	{"trace.search", "array | array struct", "List sampled traces, newest first. Optional filter struct: method, server, min_ms (int), fault (bool), limit (int)."},
	{"vo.add_admin", "boolean string string", "Add a DN (or DN prefix) to a group's administrator list."},
	{"vo.add_member", "boolean string string", "Add a DN (or DN prefix) to a group's member list."},
	{"vo.create_group", "boolean string", "Create a VO group; dotted names create subgroups (e.g. \"cms.production\")."},
	{"vo.delete_group", "boolean string", "Delete a VO group and all of its subgroups."},
	{"vo.group_info", "struct string", "Return a group's member and administrator lists."},
	{"vo.groups", "array", "List all group names on this server."},
	{"vo.is_member", "boolean string string", "Check whether a DN is a member of a group."},
	{"vo.my_groups", "array", "List the groups the caller belongs to, directly or by inheritance."},
	{"vo.remove_admin", "boolean string string", "Remove a DN from a group's administrator list."},
	{"vo.remove_member", "boolean string string", "Remove a DN from a group's member list."},
}

// startEverything starts a server with every optional service enabled.
func startEverything(t *testing.T) *Server {
	t.Helper()
	cfg := fullConfig(t)
	cfg.EnableJobs = true
	srv, _ := startJobServer(t, cfg)
	return srv
}

func TestMethodTableUnchanged(t *testing.T) {
	srv := startEverything(t)
	c, err := Dial(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names, err := CallAs[[]string](c, "system.list_methods")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(methodTable) {
		t.Errorf("%d methods listed, table has %d", len(names), len(methodTable))
	}
	for i, name := range names {
		if i >= len(methodTable) || methodTable[i].name != name {
			t.Fatalf("method %d is %q, table disagrees", i, name)
		}
		sig, err := CallAs[[]string](c, "system.method_signature", name)
		if err != nil {
			t.Fatal(err)
		}
		help, err := CallAs[string](c, "system.method_help", name)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(sig, " | "); got != methodTable[i].sig {
			t.Errorf("%s signature = %q, want %q", name, got, methodTable[i].sig)
		}
		if help != methodTable[i].help {
			t.Errorf("%s help = %q, want %q", name, help, methodTable[i].help)
		}
	}
}

// TestParameterFaultConformance pins the parameter faults (and successes)
// of typed methods over every codec, both POSTed directly and as a
// system.multicall sub-call. All three codecs agree on every row.
func TestParameterFaultConformance(t *testing.T) {
	srv := startEverything(t)
	if err := srv.Files.Grant("/data", 0, []string{userDN.String()}, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.NewSessionFor(userDN)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		method string
		params []any
		want   string
	}{
		{"vo.is_member", []any{"admins"}, "rpc fault -32602: missing parameter 1"},
		{"vo.is_member", []any{5, "x"}, "rpc fault -32602: parameter 0: want string, got int"},
		{"file.read", []any{"/data/events.bin"}, "4096 bytes"},
		{"file.read", []any{"/data/events.bin", 4000}, "96 bytes"},
		{"file.read", []any{"/data/events.bin", "x"}, "rpc fault -32602: parameter 1: want int, got string"},
		{"file.read", []any{"/data/events.bin", 0, true}, "rpc fault -32602: parameter 2: want int, got bool"},
		{"job.submit", []any{"echo hi"}, "job id"},
		{"job.submit", []any{"echo hi", 0, 0, []any{"*.dat"}}, "job id"},
		{"job.submit", []any{"echo hi", 0, 0, "x"}, "rpc fault -32602: parameter 3: want array, got string"},
	}
	outcome := func(v any, err error) string {
		if err != nil {
			return err.Error()
		}
		switch v := v.(type) {
		case map[string]any:
			return fmt.Sprintf("%d bytes", len(v["data"].([]byte)))
		case string:
			return "job id"
		}
		return fmt.Sprintf("%T", v)
	}
	for _, proto := range []string{"xmlrpc", "jsonrpc", "soap"} {
		c, err := Dial(srv.URL(), WithProtocol(proto), WithSession(sess.ID))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, r := range rows {
			if got := outcome(c.Call(r.method, r.params...)); got != r.want {
				t.Errorf("%s %s%v direct: %q, want %q", proto, r.method, r.params, got, r.want)
			}
			res, err := c.Batch().Add(r.method, r.params...).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := outcome(res[0].Result, res[0].Err); got != r.want {
				t.Errorf("%s %s%v in multicall: %q, want %q", proto, r.method, r.params, got, r.want)
			}
		}
	}
}
