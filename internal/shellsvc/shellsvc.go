package shellsvc

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

// Service is the Clarens shell service.
type Service struct {
	srv         *core.Server
	userMap     *UserMap
	sandboxRoot string
	// AllowRealExec switches shell.cmd from the built-in interpreter to
	// /bin/sh -c executed inside the sandbox working directory. Off by
	// default; enable only on hosts where every mapped user is trusted
	// with the server's own privileges.
	AllowRealExec bool
}

// New creates the shell service. sandboxRoot is the directory under which
// per-user sandboxes are created ("execution takes place in a sandbox
// owned by the local system user ... created or re-used for subsequent
// commands"). Point it inside the file service root to make sandboxes
// visible to file.* methods, as the paper describes.
func New(srv *core.Server, userMap *UserMap, sandboxRoot string) (*Service, error) {
	if userMap == nil {
		return nil, fmt.Errorf("shellsvc: nil user map")
	}
	abs, err := filepath.Abs(sandboxRoot)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("shellsvc: sandbox root: %w", err)
	}
	return &Service{srv: srv, userMap: userMap, sandboxRoot: abs}, nil
}

// Name implements core.Service.
func (s *Service) Name() string { return "shell" }

// Methods implements core.Service. Access to the module is additionally
// controlled by method ACLs ("The Shell provides a secure way for
// *authorized* clients to execute shell commands").
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name: "shell.cmd",
			Help: "Execute a command line in the caller's sandbox as the mapped local user; returns {stdout, stderr, exit_code, user, sandbox}.",
			Func: core.Func1(s.cmd),
		},
		{
			Name: "shell.cmd_info",
			Help: "Return the caller's mapped local user, sandbox top directory (usable with file.* methods), and the available commands.",
			Func: core.Func0(s.cmdInfo),
		},
		{
			Name: "shell.whoami_local",
			Help: "Return the local system user the caller's DN maps to.",
			Func: core.Func0(s.resolveUser),
		},
	}
}

// resolveUser maps the caller to a local user or faults; it is also
// shell.whoami_local.
func (s *Service) resolveUser(ctx *core.Context) (string, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return "", err
	}
	user, ok := s.userMap.Resolve(ctx.DN, s.srv.VO())
	if !ok {
		return "", &rpc.Fault{
			Code:    rpc.CodeAccessDenied,
			Message: fmt.Sprintf("shell: no %s entry maps %q to a local user", UserMapFileName, ctx.DN.String()),
		}
	}
	return user, nil
}

// Sandbox returns (creating if needed) the sandbox directory for a local
// user and its path relative to the sandbox root.
func (s *Service) Sandbox(localUser string) (abs string, err error) {
	if strings.ContainsAny(localUser, "/\\.") {
		return "", fmt.Errorf("shellsvc: invalid local user %q", localUser)
	}
	abs = filepath.Join(s.sandboxRoot, localUser)
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	return abs, nil
}

// SandboxVirtual returns the sandbox path as seen by the file service
// when the sandbox root lives under the file service root at rootPrefix
// (e.g. "/sandbox"). Used by shell.cmd_info so clients can follow up with
// file.ls / file.read on their sandbox, per the paper.
func (s *Service) SandboxVirtual(localUser string) string {
	return "/" + filepath.ToSlash(filepath.Join(filepath.Base(s.sandboxRoot), localUser))
}

// ExecStreamAs runs a command line in dn's sandbox, streaming stdout and
// stderr into the supplied writers as the command produces them: the DN
// is resolved through the user map, the per-user sandbox is created or
// re-used, and the line runs under the built-in interpreter (or /bin/sh
// when AllowRealExec is set). It is the execution backend for the
// asynchronous job service, which spools job outputs to per-job artifact
// files instead of retaining them as strings — nothing in this path
// buffers the full stream in memory. The exit code, mapped local user
// and ctx.Err() are returned: the command stops when ctx ends.
func (s *Service) ExecStreamAs(ctx context.Context, dn pki.DN, line string, stdout, stderr io.Writer) (int, string, error) {
	if dn.IsZero() {
		return 0, "", &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "shell: authentication required"}
	}
	user, ok := s.userMap.Resolve(dn, s.srv.VO())
	if !ok {
		return 0, "", &rpc.Fault{
			Code:    rpc.CodeAccessDenied,
			Message: fmt.Sprintf("shell: no %s entry maps %q to a local user", UserMapFileName, dn.String()),
		}
	}
	sandbox, err := s.Sandbox(user)
	if err != nil {
		return 0, "", err
	}
	if s.AllowRealExec {
		return s.realExec(ctx, line, sandbox, stdout, stderr), user, ctx.Err()
	}
	ip := &interp{ctx: ctx, sandbox: sandbox, cwd: sandbox}
	return ip.run(line, user, stdout, stderr), user, ctx.Err()
}

// ExecAs is ExecStreamAs with buffered capture and no deadline, for
// callers that want the whole (small) output as strings.
func (s *Service) ExecAs(dn pki.DN, line string) (Result, string, error) {
	var out, errw strings.Builder
	code, user, err := s.ExecStreamAs(context.Background(), dn, line, &out, &errw)
	if err != nil {
		return Result{}, "", err
	}
	return Result{Stdout: out.String(), Stderr: errw.String(), ExitCode: code}, user, nil
}

// CollectedFile describes one sandbox file staged by CollectInto: its
// base name in the destination plus the size and MD5 computed while the
// copy streamed (so callers never re-read the file to describe it).
type CollectedFile struct {
	Name string
	Size int64
	MD5  string
}

// CollectInto copies sandbox files matching the glob patterns into
// destDir, making the job's working files a collectable artifact set:
// the job service calls it after an attempt so analysis outputs written
// to the sandbox (histograms, skimmed event files) stage alongside the
// stdout/stderr spools. Patterns resolve relative to the sandbox root
// and may name subdirectories ("results/*.dat"). Symlinks are never
// followed — neither as matches nor through parent directories — so a
// payload cannot stage server files from outside its sandbox.
// fileLimit bounds EACH file (<= 0: unlimited); oversized files are
// reported in skipped, not split. The destination file names are the
// matches' base names (first match wins on collision, and a file already
// present in destDir — e.g. an output spool — is never overwritten);
// staged files come back name-sorted with sizes and digests.
func (s *Service) CollectInto(dn pki.DN, patterns []string, destDir string, fileLimit int64) (staged []CollectedFile, skipped []string, err error) {
	if dn.IsZero() {
		return nil, nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "shell: authentication required"}
	}
	user, ok := s.userMap.Resolve(dn, s.srv.VO())
	if !ok {
		return nil, nil, &rpc.Fault{
			Code:    rpc.CodeAccessDenied,
			Message: fmt.Sprintf("shell: no %s entry maps %q to a local user", UserMapFileName, dn.String()),
		}
	}
	sandbox, err := s.Sandbox(user)
	if err != nil {
		return nil, nil, err
	}
	// Containment is checked on the RESOLVED path: a match that passes the
	// lexical prefix test can still point outside the sandbox through a
	// symlinked parent directory or be a symlink itself.
	sandboxReal, err := filepath.EvalSymlinks(sandbox)
	if err != nil {
		return nil, nil, err
	}
	byName := make(map[string]CollectedFile)
	for _, pattern := range patterns {
		clean := filepath.Clean(filepath.FromSlash(pattern))
		if clean == "." || filepath.IsAbs(clean) || strings.HasPrefix(clean, "..") {
			continue // pattern escapes (or is) the sandbox root
		}
		matches, err := filepath.Glob(filepath.Join(sandbox, clean))
		if err != nil {
			return nil, nil, fmt.Errorf("shell: bad collect pattern %q: %v", pattern, err)
		}
		for _, m := range matches {
			if !strings.HasPrefix(m, sandbox+string(filepath.Separator)) {
				continue
			}
			real, rerr := filepath.EvalSymlinks(m)
			if rerr != nil || (real != sandboxReal && !strings.HasPrefix(real, sandboxReal+string(filepath.Separator))) {
				continue // resolves outside the sandbox (symlink escape)
			}
			fi, serr := os.Lstat(m)
			if serr != nil || !fi.Mode().IsRegular() {
				continue // symlinks and specials are never staged
			}
			name := filepath.Base(m)
			if _, dup := byName[name]; dup {
				continue
			}
			if _, serr := os.Lstat(filepath.Join(destDir, name)); serr == nil {
				// Never overwrite a file already in the destination — the
				// job service's stdout/stderr spools live there, and a
				// sandbox file of the same name must not clobber a spool
				// whose size/digest were already published.
				continue
			}
			if fileLimit > 0 && fi.Size() > fileLimit {
				skipped = append(skipped, name)
				continue
			}
			size, digest, cerr := copyFileHash(context.Background(), real, filepath.Join(destDir, name))
			if cerr != nil {
				return nil, nil, fmt.Errorf("shell: collect %q: %v", name, cerr)
			}
			byName[name] = CollectedFile{Name: name, Size: size, MD5: digest}
		}
	}
	for _, cf := range byName {
		staged = append(staged, cf)
	}
	sort.Slice(staged, func(i, j int) bool { return staged[i].Name < staged[j].Name })
	sort.Strings(skipped)
	return staged, skipped, nil
}

func (s *Service) cmd(ctx *core.Context, line string) (map[string]any, error) {
	var out, errw strings.Builder
	code, user, err := s.ExecStreamAs(ctx, ctx.DN, line, &out, &errw)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"stdout":    out.String(),
		"stderr":    errw.String(),
		"exit_code": code,
		"user":      user,
		"sandbox":   s.SandboxVirtual(user),
	}, nil
}

// realExec runs the command under /bin/sh in the sandbox directory,
// wiring the process's stdout/stderr straight to the capture writers.
// This is the opt-in mode closest to the original service (which
// additionally switched to the mapped Unix uid).
func (s *Service) realExec(ctx context.Context, line, sandbox string, stdout, stderr io.Writer) int {
	cmd := exec.CommandContext(ctx, "/bin/sh", "-c", line)
	cmd.Dir = sandbox
	cmd.Env = []string{"HOME=" + sandbox, "PATH=/usr/bin:/bin"}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.WaitDelay = time.Second // a child of the killed shell may hold the pipes
	err := cmd.Run()
	code := 0
	if err != nil {
		code = 1
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		}
	}
	return code
}

func (s *Service) cmdInfo(ctx *core.Context) (map[string]any, error) {
	user, err := s.resolveUser(ctx)
	if err != nil {
		return nil, err
	}
	if _, err := s.Sandbox(user); err != nil {
		return nil, err
	}
	return map[string]any{
		"user":      user,
		"sandbox":   s.SandboxVirtual(user),
		"commands":  BuiltinCommands(),
		"real_exec": s.AllowRealExec,
	}, nil
}

var _ core.Service = (*Service)(nil)
