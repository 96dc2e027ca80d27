package core

import (
	"clarens/internal/acl"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

// aclService exposes access-control management (paper §2.2) as web
// service methods: server administrators attach/detach ACLs at any method
// hierarchy level; any authenticated caller may check their own access.

type aclService struct{ s *Server }

func (aclService) Name() string { return "acl" }

func (sv aclService) Methods() []Method {
	return []Method{
		{
			// Hand-written: four trailing optional arrays, more parameters
			// than Func4 takes.
			Name:      "acl.set",
			Help:      "Attach an ACL to a method hierarchy path. Parameters: path, order (\"allow,deny\"|\"deny,allow\"), allow DNs, allow groups, deny DNs, deny groups.",
			Signature: []string{"boolean string string array array array array"},
			Handler:   sv.set,
		},
		{
			Name: "acl.get",
			Help: "Return the ACL attached exactly at a path, or an empty struct.",
			Func: Func1(sv.get),
		},
		{
			Name: "acl.delete",
			Help: "Remove the ACL attached at a path.",
			Func: Func1(sv.del),
		},
		{
			Name: "acl.list",
			Help: "List all paths with attached ACLs.",
			Func: Func0(sv.list),
		},
		{
			Name:   "acl.check",
			Help:   "Evaluate whether a DN may invoke a method; returns the decision and the hierarchy level that decided.",
			Public: true,
			Func:   Func2(sv.check),
		},
	}
}

func parseDNParam(s string) (pki.DN, error) {
	if s == "" {
		return nil, nil
	}
	dn, err := pki.ParseDN(s)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: err.Error()}
	}
	return dn, nil
}

func (sv aclService) set(ctx *Context, p Params) (any, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	path, err := p.String(0)
	if err != nil {
		return nil, err
	}
	a, err := ACLParams(p, 1)
	if err != nil {
		return nil, err
	}
	return true, sv.s.methACL.Set(path, a)
}

// ACLParams reads an ACL from parameter i on: the evaluation order, then
// up to four optional arrays of allow DNs, allow groups, deny DNs and
// deny groups — the tail of acl.set and file.set_acl.
func ACLParams(p Params, i int) (*acl.ACL, error) {
	orderStr, err := p.String(i)
	if err != nil {
		return nil, err
	}
	order, err := acl.ParseOrder(orderStr)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: err.Error()}
	}
	a := &acl.ACL{Order: order}
	for j, dst := range []*[]string{&a.AllowDNs, &a.AllowGroups, &a.DenyDNs, &a.DenyGroups} {
		if i+1+j >= len(p) {
			break
		}
		if *dst, err = p.StringSlice(i + 1 + j); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (sv aclService) get(ctx *Context, path string) (map[string]any, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	a, err := sv.s.methACL.Get(path)
	if err != nil {
		return nil, err
	}
	if a == nil {
		return map[string]any{}, nil
	}
	return map[string]any{
		"order":        a.Order.String(),
		"allow_dns":    a.AllowDNs,
		"allow_groups": a.AllowGroups,
		"deny_dns":     a.DenyDNs,
		"deny_groups":  a.DenyGroups,
	}, nil
}

func (sv aclService) del(ctx *Context, path string) (bool, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return false, err
	}
	return true, sv.s.methACL.Delete(path)
}

func (sv aclService) list(ctx *Context) ([]string, error) {
	if err := ctx.RequireServerAdmin(); err != nil {
		return nil, err
	}
	return sv.s.methACL.Paths(), nil
}

// check evaluates path for the caller, or for the optional DN probe:
// only server admins may probe other identities.
func (sv aclService) check(ctx *Context, path string, probeDN Opt[string]) (map[string]any, error) {
	dn := ctx.DN
	if dnStr, ok := probeDN.Get(); ok {
		probe, err := parseDNParam(dnStr)
		if err != nil {
			return nil, err
		}
		if !probe.Equal(ctx.DN) && !sv.s.vom.IsServerAdmin(ctx.DN) {
			return nil, &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "only administrators may check other identities"}
		}
		dn = probe
	}
	decision, level := sv.s.methACL.AuthorizeDetail(path, dn)
	return map[string]any{
		"decision": decision.String(),
		"level":    level,
	}, nil
}
