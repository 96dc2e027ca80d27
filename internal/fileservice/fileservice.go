// Package fileservice implements Clarens remote file access (paper §2.3).
//
// "Clarens serves files in two different ways: in response to standard
// HTTP GET requests, as well as via a file.read() service method." A
// virtual server root confines all access; file and directory ACLs use
// the same hierarchical structure as method ACLs, "extended with two
// extra fields: read and write"; and the GET path hands network I/O to
// the web server, which uses the zero-copy sendfile() path where
// available (Go's net/http does this through the io.ReaderFrom fast path
// used by http.ServeContent).
package fileservice

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"clarens/internal/acl"
	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

// MaxReadChunk bounds a single file.read response (base64 payload), so a
// misbehaving client cannot make the server marshal gigabytes into one
// RPC response. Larger transfers iterate or use HTTP GET.
const MaxReadChunk = 8 << 20

const aclBucket = "file_acls"

// AccessKind selects which list of a file ACL applies.
type AccessKind int

const (
	Read AccessKind = iota
	Write
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Entry is a file/directory ACL: the method-ACL structure extended with
// separate read and write lists (paper §2.3).
type Entry struct {
	Read  *acl.ACL `json:"read,omitempty"`
	Write *acl.ACL `json:"write,omitempty"`
}

// Service is the Clarens file service rooted at a virtual directory.
type Service struct {
	srv  *core.Server
	root string
}

// New creates the file service. root must be an existing directory; it
// becomes the virtual server root ("a virtual server root directory can
// be defined ... which may be any directory on the server system").
func New(srv *core.Server, root string) (*Service, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("fileservice: %w", err)
	}
	st, err := os.Stat(abs)
	if err != nil {
		return nil, fmt.Errorf("fileservice: root: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("fileservice: root %q is not a directory", abs)
	}
	return &Service{srv: srv, root: abs}, nil
}

// Root returns the virtual root directory.
func (s *Service) Root() string { return s.root }

// Name implements core.Service.
func (s *Service) Name() string { return "file" }

// resolve maps a client-supplied virtual path to a real path, confined to
// the root. The returned virtual path is cleaned and absolute ("/x/y").
func (s *Service) resolve(name string) (real, virtual string, err error) {
	virtual = path.Clean("/" + strings.ReplaceAll(name, "\\", "/"))
	real = filepath.Join(s.root, filepath.FromSlash(virtual))
	if real != s.root && !strings.HasPrefix(real, s.root+string(filepath.Separator)) {
		return "", "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "path escapes the virtual root"}
	}
	return real, virtual, nil
}

// aclLevels expands "/a/b/c" to ["/a/b/c", "/a/b", "/a", "/"].
func aclLevels(virtual string) []string {
	out := []string{virtual}
	for virtual != "/" {
		virtual = path.Dir(virtual)
		out = append(out, virtual)
	}
	return out
}

// SetACL attaches a file ACL at the virtual path.
func (s *Service) SetACL(virtual string, kind AccessKind, a *acl.ACL) error {
	_, v, err := s.resolve(virtual)
	if err != nil {
		return err
	}
	var e Entry
	if _, err := s.srv.Store().GetJSON(aclBucket, v, &e); err != nil {
		return err
	}
	if kind == Read {
		e.Read = a
	} else {
		e.Write = a
	}
	return s.srv.Store().PutJSON(aclBucket, v, &e)
}

// GetACL returns the entry exactly at the virtual path, or nil.
func (s *Service) GetACL(virtual string) (*Entry, error) {
	_, v, err := s.resolve(virtual)
	if err != nil {
		return nil, err
	}
	var e Entry
	found, err := s.srv.Store().GetJSON(aclBucket, v, &e)
	if err != nil || !found {
		return nil, err
	}
	return &e, nil
}

// DeleteACL removes the entry at the virtual path.
func (s *Service) DeleteACL(virtual string) error {
	_, v, err := s.resolve(virtual)
	if err != nil {
		return err
	}
	return s.srv.Store().Delete(aclBucket, v)
}

// Authorize walks the file ACL hierarchy lowest-level-first (same
// semantics as method ACLs) for the requested access kind. Server
// administrators always have access; otherwise the default is deny.
func (s *Service) Authorize(virtual string, kind AccessKind, dn pki.DN) acl.Decision {
	if s.srv.VO().IsServerAdmin(dn) {
		return acl.Allow
	}
	store := s.srv.Store()
	for _, lvl := range aclLevels(virtual) {
		var e Entry
		found, err := store.GetJSON(aclBucket, lvl, &e)
		if err != nil || !found {
			continue
		}
		a := e.Read
		if kind == Write {
			a = e.Write
		}
		if a == nil {
			continue
		}
		if d := a.Evaluate(dn, s.srv.VO()); d != acl.NoOpinion {
			return d
		}
	}
	return acl.Deny
}

func (s *Service) authorizeOrFault(ctx *core.Context, virtual string, kind AccessKind) error {
	if s.Authorize(virtual, kind, ctx.DN) != acl.Allow {
		return &rpc.Fault{
			Code:    rpc.CodeAccessDenied,
			Message: fmt.Sprintf("%s access denied: %s for %q", kind, virtual, ctx.DN.String()),
		}
	}
	return nil
}

// Methods implements core.Service.
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name:   "file.read",
			Help:   "Read up to `length` bytes from `name` starting at `offset`; returns {data, eof, size}. length -1 reads to EOF (capped per call); eof tells chunk-iterating clients when to stop without a zero-byte probe.",
			Public: true,
			Func:   core.Func3(s.read),
		},
		{
			Name:   "file.write",
			Help:   "Write binary data to `name` at `offset` (-1 appends), creating the file if needed; returns bytes written.",
			Public: true,
			Func:   core.Func3(s.write),
		},
		{
			Name:   "file.ls",
			Help:   "List a directory; returns an array of {name, size, is_dir, mtime} structs.",
			Public: true,
			Func:   core.Func1(s.ls),
		},
		{
			Name:   "file.stat",
			Help:   "Return {name, size, is_dir, mtime} for a path.",
			Public: true,
			Func:   core.Func1(s.stat),
		},
		{
			Name:   "file.md5",
			Help:   "Return the hex MD5 digest of a file, for integrity checking.",
			Public: true,
			Func:   core.Func1(s.md5sum),
		},
		{
			Name:   "file.find",
			Help:   "Recursively find files under `dir` whose base name matches the glob `pattern`.",
			Public: true,
			Func:   core.Func2(s.find),
		},
		{
			Name:   "file.size",
			Help:   "Return the size of a file in bytes.",
			Public: true,
			Func:   core.Func1(s.size),
		},
		{
			Name:   "file.mkdir",
			Help:   "Create a directory (and missing parents).",
			Public: true,
			Func:   core.Func1(s.mkdir),
		},
		{
			Name:   "file.rm",
			Help:   "Remove a file or empty directory.",
			Public: true,
			Func:   core.Func1(s.rm),
		},
		{
			// Hand-written: four trailing optional arrays, more parameters
			// than Func4 takes.
			Name:      "file.set_acl",
			Help:      "Attach a read or write ACL to a path. Parameters: path, kind (read|write), order, allow DNs, allow groups, deny DNs, deny groups. Administrators only.",
			Signature: []string{"boolean string string string array array array array"},
			Public:    true,
			Handler:   s.setACLMethod,
		},
		{
			Name:   "file.get_acl",
			Help:   "Return the ACL entry attached at a path. Administrators only.",
			Public: true,
			Func:   core.Func1(s.getACLMethod),
		},
		{
			Name:   "file.del_acl",
			Help:   "Remove the ACL entry at a path. Administrators only.",
			Public: true,
			Func:   core.Func1(s.delACLMethod),
		},
	}
}

func (s *Service) read(ctx *core.Context, name string, offsetArg, lengthArg core.Opt[int]) (map[string]any, error) {
	offset, length := offsetArg.Or(0), lengthArg.Or(-1)
	real, virtual, err := s.resolve(name)
	if err != nil {
		return nil, err
	}
	if err := s.authorizeOrFault(ctx, virtual, Read); err != nil {
		return nil, err
	}
	f, err := os.Open(real)
	if err != nil {
		return nil, pathFault(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, pathFault(err)
	}
	if offset > 0 {
		if _, err := f.Seek(int64(offset), io.SeekStart); err != nil {
			return nil, pathFault(err)
		}
	}
	if length < 0 || length > MaxReadChunk {
		length = MaxReadChunk
	}
	buf := make([]byte, length)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, pathFault(err)
	}
	// eof signals that this chunk reached the end of the file as it was
	// when read, so iterating clients (the job-artifact fetcher, the
	// federation pull-back) terminate without a zero-byte probe call.
	return map[string]any{
		"data": buf[:n],
		"eof":  int64(offset)+int64(n) >= fi.Size(),
		"size": int(fi.Size()),
	}, nil
}

func (s *Service) write(ctx *core.Context, name string, data []byte, offsetArg core.Opt[int]) (int, error) {
	offset := offsetArg.Or(-1)
	real, virtual, err := s.resolve(name)
	if err != nil {
		return 0, err
	}
	if err := s.authorizeOrFault(ctx, virtual, Write); err != nil {
		return 0, err
	}
	flags := os.O_CREATE | os.O_WRONLY
	if offset < 0 {
		flags |= os.O_APPEND
	}
	f, err := os.OpenFile(real, flags, 0o644)
	if err != nil {
		return 0, pathFault(err)
	}
	defer f.Close()
	var n int
	if offset < 0 {
		n, err = f.Write(data)
	} else {
		n, err = f.WriteAt(data, int64(offset))
	}
	if err != nil {
		return 0, pathFault(err)
	}
	return n, nil
}

func statStruct(name string, fi fs.FileInfo) map[string]any {
	return map[string]any{
		"name":   name,
		"size":   int(fi.Size()),
		"is_dir": fi.IsDir(),
		"mtime":  fi.ModTime().UTC(),
	}
}

func (s *Service) ls(ctx *core.Context, dir core.Opt[string]) ([]any, error) {
	real, virtual, err := s.resolve(dir.Or("/"))
	if err != nil {
		return nil, err
	}
	if err := s.authorizeOrFault(ctx, virtual, Read); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(real)
	if err != nil {
		return nil, pathFault(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	out := make([]any, 0, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, statStruct(e.Name(), fi))
	}
	return out, nil
}

func (s *Service) stat(ctx *core.Context, name string) (map[string]any, error) {
	fi, virtual, err := s.statPath(ctx, name)
	if err != nil {
		return nil, err
	}
	return statStruct(virtual, fi), nil
}

// statPath resolves name, checks read access and stats it.
func (s *Service) statPath(ctx *core.Context, name string) (fs.FileInfo, string, error) {
	real, virtual, err := s.resolve(name)
	if err != nil {
		return nil, "", err
	}
	if err := s.authorizeOrFault(ctx, virtual, Read); err != nil {
		return nil, "", err
	}
	fi, err := os.Stat(real)
	if err != nil {
		return nil, "", pathFault(err)
	}
	return fi, virtual, nil
}

func (s *Service) md5sum(ctx *core.Context, name string) (string, error) {
	real, virtual, err := s.resolve(name)
	if err != nil {
		return "", err
	}
	if err := s.authorizeOrFault(ctx, virtual, Read); err != nil {
		return "", err
	}
	f, err := os.Open(real)
	if err != nil {
		return "", pathFault(err)
	}
	defer f.Close()
	h := md5.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", pathFault(err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (s *Service) find(ctx *core.Context, dir string, patternArg core.Opt[string]) ([]any, error) {
	pattern := patternArg.Or("*")
	if _, badPattern := path.Match(pattern, "probe"); badPattern != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "bad glob pattern: " + pattern}
	}
	realDir, virtualDir, err := s.resolve(dir)
	if err != nil {
		return nil, err
	}
	if err := s.authorizeOrFault(ctx, virtualDir, Read); err != nil {
		return nil, err
	}
	var out []any
	err = filepath.WalkDir(realDir, func(real string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // skip unreadable entries
		}
		rel, relErr := filepath.Rel(s.root, real)
		if relErr != nil {
			return nil
		}
		virtual := "/" + filepath.ToSlash(rel)
		if d.IsDir() {
			// Authorization is hierarchical: an explicit deny below the
			// requested dir prunes the walk.
			if s.Authorize(virtual, Read, ctx.DN) != acl.Allow {
				if virtual != virtualDir {
					return fs.SkipDir
				}
			}
			return nil
		}
		if ok, _ := path.Match(pattern, d.Name()); ok {
			out = append(out, virtual)
		}
		return nil
	})
	if err != nil {
		return nil, pathFault(err)
	}
	return out, nil
}

func (s *Service) size(ctx *core.Context, name string) (int, error) {
	fi, _, err := s.statPath(ctx, name)
	if err != nil {
		return 0, err
	}
	return int(fi.Size()), nil
}

func (s *Service) mkdir(ctx *core.Context, name string) (bool, error) {
	real, virtual, err := s.resolve(name)
	if err != nil {
		return false, err
	}
	if err := s.authorizeOrFault(ctx, virtual, Write); err != nil {
		return false, err
	}
	if err := os.MkdirAll(real, 0o755); err != nil {
		return false, pathFault(err)
	}
	return true, nil
}

func (s *Service) rm(ctx *core.Context, name string) (bool, error) {
	real, virtual, err := s.resolve(name)
	if err != nil {
		return false, err
	}
	if virtual == "/" {
		return false, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "refusing to remove the virtual root"}
	}
	if err := s.authorizeOrFault(ctx, virtual, Write); err != nil {
		return false, err
	}
	if err := os.Remove(real); err != nil {
		return false, pathFault(err)
	}
	return true, nil
}

func (s *Service) setACLMethod(ctx *core.Context, p core.Params) (any, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	pathArg, err := p.String(0)
	if err != nil {
		return nil, err
	}
	kindStr, err := p.String(1)
	if err != nil {
		return nil, err
	}
	var kind AccessKind
	switch kindStr {
	case "read":
		kind = Read
	case "write":
		kind = Write
	default:
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "kind must be read or write"}
	}
	a, err := core.ACLParams(p, 2)
	if err != nil {
		return nil, err
	}
	return true, s.SetACL(pathArg, kind, a)
}

func (s *Service) getACLMethod(ctx *core.Context, pathArg string) (map[string]any, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	e, err := s.GetACL(pathArg)
	if err != nil {
		return nil, err
	}
	out := map[string]any{}
	if e != nil {
		if e.Read != nil {
			out["read"] = aclStruct(e.Read)
		}
		if e.Write != nil {
			out["write"] = aclStruct(e.Write)
		}
	}
	return out, nil
}

func aclStruct(a *acl.ACL) map[string]any {
	return map[string]any{
		"order":        a.Order.String(),
		"allow_dns":    a.AllowDNs,
		"allow_groups": a.AllowGroups,
		"deny_dns":     a.DenyDNs,
		"deny_groups":  a.DenyGroups,
	}
}

func (s *Service) delACLMethod(ctx *core.Context, pathArg string) (bool, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return false, err
	}
	return true, s.DeleteACL(pathArg)
}

// pathFault converts filesystem errors to application faults without
// leaking real (non-virtual) paths.
func pathFault(err error) error {
	msg := err.Error()
	if pe, ok := err.(*fs.PathError); ok {
		msg = fmt.Sprintf("%s %s: %v", pe.Op, filepath.Base(pe.Path), pe.Err)
	}
	return &rpc.Fault{Code: rpc.CodeApplication, Message: "file: " + msg}
}

// MountHTTP attaches the HTTP GET file server at prefix (e.g. "/files/").
// This is the zero-copy path: http.ServeContent hands the *os.File to the
// TCP connection via the io.ReaderFrom fast path (sendfile on Linux),
// minimizing CPU per byte exactly as the paper describes.
func (s *Service) MountHTTP(prefix string) {
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	s.srv.Mux().HandleFunc(prefix, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "file server accepts GET", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, prefix[:len(prefix)-1])
		real, virtual, err := s.resolve(name)
		if err != nil {
			http.Error(w, "bad path", http.StatusBadRequest)
			return
		}
		dn, _ := s.srv.IdentifyRequest(r)
		if s.Authorize(virtual, Read, dn) != acl.Allow {
			// "GET requests return a file or an XML-encoded error message".
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.WriteHeader(http.StatusForbidden)
			fmt.Fprintf(w, "<error><code>403</code><message>read access denied: %s</message></error>", virtual)
			return
		}
		f, err := os.Open(real)
		if err != nil {
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "<error><code>404</code><message>no such file: %s</message></error>", virtual)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil || fi.IsDir() {
			w.Header().Set("Content-Type", "text/xml; charset=utf-8")
			w.WriteHeader(http.StatusForbidden)
			fmt.Fprintf(w, "<error><code>403</code><message>not a regular file: %s</message></error>", virtual)
			return
		}
		http.ServeContent(w, r, fi.Name(), fi.ModTime(), f)
	})
}

// Grant is a convenience for examples and tests: allow dns/groups the
// given access kind on a virtual path.
func (s *Service) Grant(virtual string, kind AccessKind, dns []string, groups []string) error {
	return s.SetACL(virtual, kind, &acl.ACL{AllowDNs: dns, AllowGroups: groups})
}

var _ core.Service = (*Service)(nil)
