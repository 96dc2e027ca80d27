package shellsvc

import (
	"bufio"
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result of executing a command line with buffered capture (shell.cmd).
// The job service's asynchronous path streams instead — see ExecStreamAs
// — so multi-megabyte outputs never live in memory as strings.
type Result struct {
	Stdout   string
	Stderr   string
	ExitCode int
}

// interp is the safe built-in command interpreter. Commands operate
// strictly inside the sandbox directory; path arguments are confined the
// same way the file service confines its virtual root. Output is written
// straight to the supplied writers: a command like `seq 1000000` streams
// to its destination (spool file or response buffer) without the
// interpreter ever holding the whole stream.
type interp struct {
	ctx     context.Context // ends the line: commands check it between lines or chunks
	sandbox string
	cwd     string // current dir, absolute, inside sandbox
}

// ctxReader ends a read loop once ctx ends: each chunk checks it first.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// BuiltinCommands lists the commands the interpreter understands, for
// shell.cmd_info.
func BuiltinCommands() []string {
	cmds := make([]string, 0, len(builtins))
	for name := range builtins {
		cmds = append(cmds, name)
	}
	sort.Strings(cmds)
	return cmds
}

type builtinFunc func(ip *interp, args []string, out, errw io.Writer) int

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"pwd":    (*interp).pwd,
		"echo":   (*interp).echo,
		"ls":     (*interp).ls,
		"cat":    (*interp).cat,
		"mkdir":  (*interp).mkdir,
		"rm":     (*interp).rm,
		"cp":     (*interp).cp,
		"mv":     (*interp).mv,
		"touch":  (*interp).touch,
		"wc":     (*interp).wc,
		"head":   (*interp).head,
		"grep":   (*interp).grep,
		"cd":     (*interp).cd,
		"sleep":  (*interp).sleep,
		"seq":    (*interp).seq,
		"true":   func(*interp, []string, io.Writer, io.Writer) int { return 0 },
		"false":  func(*interp, []string, io.Writer, io.Writer) int { return 1 },
		"whoami": nil, // handled by the service, which knows the local user
	}
}

// resolvePath confines p to the sandbox; relative paths resolve from cwd.
func (ip *interp) resolvePath(p string) (string, error) {
	var abs string
	if filepath.IsAbs(p) {
		// Absolute paths are interpreted relative to the sandbox root,
		// which the sandbox presents as "/".
		abs = filepath.Join(ip.sandbox, filepath.Clean(p))
	} else {
		abs = filepath.Join(ip.cwd, p)
	}
	abs = filepath.Clean(abs)
	if abs != ip.sandbox && !strings.HasPrefix(abs, ip.sandbox+string(filepath.Separator)) {
		return "", fmt.Errorf("path %q escapes the sandbox", p)
	}
	return abs, nil
}

// virtual renders an absolute sandbox path as sandbox-relative ("/x/y").
func (ip *interp) virtual(abs string) string {
	rel, err := filepath.Rel(ip.sandbox, abs)
	if err != nil || rel == "." {
		return "/"
	}
	return "/" + filepath.ToSlash(rel)
}

// tokenize splits a command line on whitespace, honoring double and
// single quotes.
func tokenize(line string) ([]string, error) {
	var tokens []string
	var cur strings.Builder
	inTok := false
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '"' || c == '\'':
			quote = c
			inTok = true
		case c == ' ' || c == '\t':
			if inTok {
				tokens = append(tokens, cur.String())
				cur.Reset()
				inTok = false
			}
		default:
			cur.WriteByte(c)
			inTok = true
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("unterminated quote")
	}
	if inTok {
		tokens = append(tokens, cur.String())
	}
	return tokens, nil
}

// run executes a command line: one or more simple commands joined by "&&",
// each optionally ending with "> file" or ">> file" redirection. Output is
// streamed to stdout/stderr as it is produced.
func (ip *interp) run(line, localUser string, stdout, stderr io.Writer) int {
	code := 0
	for _, segment := range strings.Split(line, "&&") {
		segment = strings.TrimSpace(segment)
		if segment == "" {
			continue
		}
		code = ip.runSimple(segment, localUser, stdout, stderr)
		if code != 0 || ip.ctx.Err() != nil {
			break
		}
	}
	return code
}

func (ip *interp) runSimple(segment, localUser string, stdout, stderr io.Writer) int {
	tokens, err := tokenize(segment)
	if err != nil {
		fmt.Fprintf(stderr, "sh: %v\n", err)
		return 2
	}
	// Redirection: "cmd args > file" or ">> file".
	redirect, appendMode := "", false
	if n := len(tokens); n >= 2 {
		switch tokens[n-2] {
		case ">":
			redirect, tokens = tokens[n-1], tokens[:n-2]
		case ">>":
			redirect, appendMode, tokens = tokens[n-1], true, tokens[:n-2]
		}
	}
	out := stdout
	if redirect != "" {
		abs, err := ip.resolvePath(redirect)
		if err != nil {
			fmt.Fprintf(stderr, "sh: %v\n", err)
			return 1
		}
		flags := os.O_CREATE | os.O_WRONLY
		if appendMode {
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(abs, flags, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "sh: %s: %v\n", redirect, err)
			return 1
		}
		defer f.Close()
		out = f
	}
	if len(tokens) == 0 {
		return 0 // a bare redirection only creates or truncates its file
	}
	name, args := tokens[0], tokens[1:]

	switch {
	case name == "whoami":
		fmt.Fprintln(out, localUser)
		return 0
	default:
		fn, ok := builtins[name]
		if !ok || fn == nil {
			fmt.Fprintf(stderr, "sh: %s: command not found\n", name)
			return 127
		}
		return fn(ip, args, out, stderr)
	}
}

// sleepCap bounds a single sleep; job.cancel, shutdown and the method
// deadline end ctx, which cuts it short.
const sleepCap = 30 * time.Second

func (ip *interp) sleep(args []string, out, errw io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(errw, "sleep: usage: sleep SECONDS")
		return 2
	}
	secs, err := strconv.ParseFloat(args[0], 64)
	if err != nil || secs < 0 {
		fmt.Fprintf(errw, "sleep: invalid time %q\n", args[0])
		return 1
	}
	d := time.Duration(secs * float64(time.Second))
	if d > sleepCap {
		d = sleepCap
	}
	select { // once ctx ends, run stops the line
	case <-time.After(d):
	case <-ip.ctx.Done():
	}
	return 0
}

// seqCap bounds the number of lines one seq invocation may emit
// (~80 MiB of digits at the cap), so a job payload cannot spin forever.
const seqCap = 10_000_000

// seq prints the integers first..last, one per line — the interpreter's
// bulk-output generator (analysis jobs use it to synthesize event-sized
// result streams, and the staging benchmark drives multi-MB outputs
// through it). Usage: seq LAST or seq FIRST LAST.
func (ip *interp) seq(args []string, out, errw io.Writer) int {
	first, last := 1, 0
	var err error
	switch len(args) {
	case 1:
		last, err = strconv.Atoi(args[0])
	case 2:
		first, err = strconv.Atoi(args[0])
		if err == nil {
			last, err = strconv.Atoi(args[1])
		}
	default:
		fmt.Fprintln(errw, "seq: usage: seq [FIRST] LAST")
		return 2
	}
	if err != nil {
		fmt.Fprintf(errw, "seq: invalid number: %v\n", err)
		return 1
	}
	// Overflow-safe clamp: compare the span without computing last-first
	// on hostile extremes (math.MinInt..math.MaxInt would wrap).
	if last > first && uint64(last)-uint64(first) >= seqCap {
		last = first + seqCap - 1
	}
	// Buffer lines locally so a multi-million-line sequence does not pay
	// one Write syscall per line when out is a spool file.
	var buf []byte
	for i := first; i <= last; i++ {
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, '\n')
		if len(buf) >= 32<<10 {
			if _, werr := out.Write(buf); werr != nil || ip.ctx.Err() != nil {
				return 1
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, werr := out.Write(buf); werr != nil {
			return 1
		}
	}
	return 0
}

func (ip *interp) pwd(args []string, out, errw io.Writer) int {
	fmt.Fprintln(out, ip.virtual(ip.cwd))
	return 0
}

func (ip *interp) echo(args []string, out, errw io.Writer) int {
	fmt.Fprintln(out, strings.Join(args, " "))
	return 0
}

func (ip *interp) cd(args []string, out, errw io.Writer) int {
	target := "/"
	if len(args) > 0 {
		target = args[0]
	}
	abs, err := ip.resolvePath(target)
	if err != nil {
		fmt.Fprintf(errw, "cd: %v\n", err)
		return 1
	}
	fi, err := os.Stat(abs)
	if err != nil || !fi.IsDir() {
		fmt.Fprintf(errw, "cd: %s: no such directory\n", target)
		return 1
	}
	ip.cwd = abs
	return 0
}

func (ip *interp) ls(args []string, out, errw io.Writer) int {
	target := "."
	if len(args) > 0 {
		target = args[0]
	}
	abs, err := ip.resolvePath(target)
	if err != nil {
		fmt.Fprintf(errw, "ls: %v\n", err)
		return 1
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		fmt.Fprintf(errw, "ls: %s: %v\n", target, errShort(err))
		return 1
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			name += "/"
		}
		fmt.Fprintln(out, name)
	}
	return 0
}

func (ip *interp) cat(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(errw, "cat: missing operand")
		return 1
	}
	for _, a := range args {
		abs, err := ip.resolvePath(a)
		if err != nil {
			fmt.Fprintf(errw, "cat: %v\n", err)
			return 1
		}
		f, err := os.Open(abs)
		if err != nil {
			fmt.Fprintf(errw, "cat: %s: %v\n", a, errShort(err))
			return 1
		}
		_, err = io.Copy(out, ctxReader{ip.ctx, f})
		f.Close()
		if err != nil {
			fmt.Fprintf(errw, "cat: %s: %v\n", a, errShort(err))
			return 1
		}
	}
	return 0
}

func (ip *interp) mkdir(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(errw, "mkdir: missing operand")
		return 1
	}
	for _, a := range args {
		abs, err := ip.resolvePath(a)
		if err != nil {
			fmt.Fprintf(errw, "mkdir: %v\n", err)
			return 1
		}
		if err := os.MkdirAll(abs, 0o755); err != nil {
			fmt.Fprintf(errw, "mkdir: %s: %v\n", a, errShort(err))
			return 1
		}
	}
	return 0
}

func (ip *interp) rm(args []string, out, errw io.Writer) int {
	recursive := false
	var paths []string
	for _, a := range args {
		if a == "-r" || a == "-rf" {
			recursive = true
		} else {
			paths = append(paths, a)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(errw, "rm: missing operand")
		return 1
	}
	for _, a := range paths {
		abs, err := ip.resolvePath(a)
		if err != nil {
			fmt.Fprintf(errw, "rm: %v\n", err)
			return 1
		}
		if abs == ip.sandbox {
			fmt.Fprintln(errw, "rm: refusing to remove the sandbox root")
			return 1
		}
		if recursive {
			err = os.RemoveAll(abs)
		} else {
			err = os.Remove(abs)
		}
		if err != nil {
			fmt.Fprintf(errw, "rm: %s: %v\n", a, errShort(err))
			return 1
		}
	}
	return 0
}

func (ip *interp) cp(args []string, out, errw io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errw, "cp: want source and destination")
		return 1
	}
	src, err := ip.resolvePath(args[0])
	if err != nil {
		fmt.Fprintf(errw, "cp: %v\n", err)
		return 1
	}
	dst, err := ip.resolvePath(args[1])
	if err != nil {
		fmt.Fprintf(errw, "cp: %v\n", err)
		return 1
	}
	if fi, statErr := os.Stat(dst); statErr == nil && fi.IsDir() {
		dst = filepath.Join(dst, filepath.Base(src))
	}
	if _, _, err := copyFileHash(ip.ctx, src, dst); err != nil {
		fmt.Fprintf(errw, "cp: %v\n", errShort(err))
		return 1
	}
	return 0
}

// copyFileHash streams src into dst (create/truncate) until ctx ends,
// returning the copied byte count and hex MD5 computed as the copy
// streams, so artifact staging never reads a file twice to describe it.
func copyFileHash(ctx context.Context, src, dst string) (int64, string, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, "", err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, "", err
	}
	h := md5.New()
	n, err := io.Copy(out, io.TeeReader(ctxReader{ctx, in}, h))
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

func (ip *interp) mv(args []string, out, errw io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errw, "mv: want source and destination")
		return 1
	}
	src, err := ip.resolvePath(args[0])
	if err != nil {
		fmt.Fprintf(errw, "mv: %v\n", err)
		return 1
	}
	dst, err := ip.resolvePath(args[1])
	if err != nil {
		fmt.Fprintf(errw, "mv: %v\n", err)
		return 1
	}
	if fi, statErr := os.Stat(dst); statErr == nil && fi.IsDir() {
		dst = filepath.Join(dst, filepath.Base(src))
	}
	if err := os.Rename(src, dst); err != nil {
		fmt.Fprintf(errw, "mv: %v\n", errShort(err))
		return 1
	}
	return 0
}

func (ip *interp) touch(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(errw, "touch: missing operand")
		return 1
	}
	for _, a := range args {
		abs, err := ip.resolvePath(a)
		if err != nil {
			fmt.Fprintf(errw, "touch: %v\n", err)
			return 1
		}
		f, err := os.OpenFile(abs, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(errw, "touch: %s: %v\n", a, errShort(err))
			return 1
		}
		f.Close()
	}
	return 0
}

// wc counts in constant memory: the spool path may put multi-hundred-MiB
// files in the sandbox, and wc must not load them whole.
func (ip *interp) wc(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(errw, "wc: missing operand")
		return 1
	}
	abs, err := ip.resolvePath(args[len(args)-1])
	if err != nil {
		fmt.Fprintf(errw, "wc: %v\n", err)
		return 1
	}
	f, err := os.Open(abs)
	if err != nil {
		fmt.Fprintf(errw, "wc: %v\n", errShort(err))
		return 1
	}
	defer f.Close()
	var lines, words, bytes int64
	inWord := false
	buf := make([]byte, 64<<10)
	for {
		n, rerr := ctxReader{ip.ctx, f}.Read(buf)
		bytes += int64(n)
		for _, c := range buf[:n] {
			if c == '\n' {
				lines++
			}
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f' {
				inWord = false
			} else if !inWord {
				inWord = true
				words++
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			fmt.Fprintf(errw, "wc: %v\n", errShort(rerr))
			return 1
		}
	}
	fmt.Fprintf(out, "%d %d %d %s\n", lines, words, bytes, args[len(args)-1])
	return 0
}

// head streams the first n lines without reading past them.
func (ip *interp) head(args []string, out, errw io.Writer) int {
	n := 10
	var file string
	for i := 0; i < len(args); i++ {
		if args[i] == "-n" && i+1 < len(args) {
			fmt.Sscanf(args[i+1], "%d", &n)
			i++
		} else {
			file = args[i]
		}
	}
	if file == "" {
		fmt.Fprintln(errw, "head: missing operand")
		return 1
	}
	abs, err := ip.resolvePath(file)
	if err != nil {
		fmt.Fprintf(errw, "head: %v\n", err)
		return 1
	}
	f, err := os.Open(abs)
	if err != nil {
		fmt.Fprintf(errw, "head: %v\n", errShort(err))
		return 1
	}
	defer f.Close()
	r := bufio.NewReader(ctxReader{ip.ctx, f})
	for i := 0; i < n; i++ {
		line, rerr := r.ReadString('\n')
		if line != "" {
			io.WriteString(out, line)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			fmt.Fprintf(errw, "head: %v\n", errShort(rerr))
			return 1
		}
	}
	return 0
}

func (ip *interp) grep(args []string, out, errw io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(errw, "grep: want pattern and file")
		return 2
	}
	pattern, file := args[0], args[1]
	abs, err := ip.resolvePath(file)
	if err != nil {
		fmt.Fprintf(errw, "grep: %v\n", err)
		return 2
	}
	data, err := os.ReadFile(abs)
	if err != nil {
		fmt.Fprintf(errw, "grep: %v\n", errShort(err))
		return 2
	}
	found := 1
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if ip.ctx.Err() != nil {
			return 2
		}
		if strings.Contains(line, pattern) {
			fmt.Fprintln(out, line)
			found = 0
		}
	}
	return found
}

// errShort strips absolute host paths out of error text so the sandbox
// does not leak its real location.
func errShort(err error) string {
	if pe, ok := err.(*os.PathError); ok {
		return fmt.Sprintf("%s: %v", filepath.Base(pe.Path), pe.Err)
	}
	return err.Error()
}
