package core

// voService exposes virtual-organization management (paper §2.1) as web
// service methods. Authorization is enforced by the vo.Manager itself
// (group admins manage members and subgroups; root admins manage all),
// layered beneath the framework's method ACLs.

type voService struct{ s *Server }

func (voService) Name() string { return "vo" }

func (sv voService) Methods() []Method {
	return []Method{
		{
			Name: "vo.create_group",
			Help: "Create a VO group; dotted names create subgroups (e.g. \"cms.production\").",
			Func: Func1(sv.createGroup),
		},
		{
			Name: "vo.delete_group",
			Help: "Delete a VO group and all of its subgroups.",
			Func: Func1(sv.deleteGroup),
		},
		{
			Name: "vo.add_member",
			Help: "Add a DN (or DN prefix) to a group's member list.",
			Func: Func2(sv.addMember),
		},
		{
			Name: "vo.remove_member",
			Help: "Remove a DN from a group's member list.",
			Func: Func2(sv.removeMember),
		},
		{
			Name: "vo.add_admin",
			Help: "Add a DN (or DN prefix) to a group's administrator list.",
			Func: Func2(sv.addAdmin),
		},
		{
			Name: "vo.remove_admin",
			Help: "Remove a DN from a group's administrator list.",
			Func: Func2(sv.removeAdmin),
		},
		{
			Name: "vo.group_info",
			Help: "Return a group's member and administrator lists.",
			Func: Func1(sv.groupInfo),
		},
		{
			Name:   "vo.groups",
			Help:   "List all group names on this server.",
			Public: true,
			Func:   Func0(sv.groups),
		},
		{
			Name:   "vo.my_groups",
			Help:   "List the groups the caller belongs to, directly or by inheritance.",
			Public: true,
			Func:   Func0(sv.myGroups),
		},
		{
			Name:   "vo.is_member",
			Help:   "Check whether a DN is a member of a group.",
			Public: true,
			Func:   Func2(sv.isMember),
		},
	}
}

func (sv voService) createGroup(ctx *Context, name string) (bool, error) {
	return true, sv.s.vom.CreateGroup(name, ctx.DN)
}

func (sv voService) deleteGroup(ctx *Context, name string) (bool, error) {
	return true, sv.s.vom.DeleteGroup(name, ctx.DN)
}

func (sv voService) addMember(ctx *Context, group, dn string) (bool, error) {
	return true, sv.s.vom.AddMember(group, ctx.DN, dn)
}

func (sv voService) removeMember(ctx *Context, group, dn string) (bool, error) {
	return true, sv.s.vom.RemoveMember(group, ctx.DN, dn)
}

func (sv voService) addAdmin(ctx *Context, group, dn string) (bool, error) {
	return true, sv.s.vom.AddAdmin(group, ctx.DN, dn)
}

func (sv voService) removeAdmin(ctx *Context, group, dn string) (bool, error) {
	return true, sv.s.vom.RemoveAdmin(group, ctx.DN, dn)
}

func (sv voService) groupInfo(ctx *Context, name string) (map[string]any, error) {
	g, err := sv.s.vom.Get(name)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"name":    g.Name,
		"members": g.Members,
		"admins":  g.Admins,
	}, nil
}

func (sv voService) groups(ctx *Context) ([]string, error) {
	return sv.s.vom.Groups(), nil
}

func (sv voService) myGroups(ctx *Context) ([]string, error) {
	return sv.s.vom.MemberGroups(ctx.DN), nil
}

func (sv voService) isMember(ctx *Context, group, dnStr string) (bool, error) {
	dn, err := parseDNParam(dnStr)
	if err != nil {
		return false, err
	}
	return sv.s.vom.IsMember(group, dn), nil
}
