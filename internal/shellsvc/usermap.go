// Package shellsvc implements the Clarens shell service (paper §2.5):
// authorized clients execute commands on the server as a designated local
// system user, inside a per-user sandbox directory that is visible to the
// file service. The DN-to-local-user mapping lives in a
// .clarens_user_map file whose tuples consist of "a system user name
// string, followed by a list of user distinguished name strings, a list
// of group name strings, and a final list reserved for future use".
//
// Substitution (README "Substitutions"): the original service switched
// Unix uids; running unprivileged, we preserve the security model —
// mapping, ACL gate, per-user sandboxes — and execute commands with a
// safe built-in interpreter by default. Real /bin/sh execution is
// available behind an explicit opt-in.
package shellsvc

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"clarens/internal/pki"
)

// UserMapFileName is the conventional name of the mapping file, located
// under the clarens/shell directory in the original deployment.
const UserMapFileName = ".clarens_user_map"

// Mapping is one tuple of the user map.
type Mapping struct {
	LocalUser string
	DNs       []string // DN strings or structural prefixes
	Groups    []string // VO group names
	Reserved  []string // "a final list reserved for future use"
}

// UserMap resolves certificate DNs to local system users.
type UserMap struct {
	mappings []Mapping
}

// GroupResolver answers VO group membership (implemented by vo.Manager).
type GroupResolver interface {
	IsMember(group string, dn pki.DN) bool
}

// ParseUserMap reads the .clarens_user_map format:
//
//	# comment
//	joe : /DC=org/DC=doegrids/OU=People/CN=Joe User | /O=lab/CN=Joe ; ops, cms ;
//	guest : ; visitors ;
//
// Each line is: localuser ':' DN-list ('|'-separated) ';' group-list
// (','-separated) ';' reserved-list (','-separated). Empty lists are
// permitted; blank lines and '#' comments are ignored.
func ParseUserMap(r io.Reader) (*UserMap, error) {
	um := &UserMap{}
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("shellsvc: %s line %d: missing ':' after user name", UserMapFileName, lineNo)
		}
		m := Mapping{LocalUser: strings.TrimSpace(line[:colon])}
		if m.LocalUser == "" {
			return nil, fmt.Errorf("shellsvc: %s line %d: empty user name", UserMapFileName, lineNo)
		}
		rest := line[colon+1:]
		fields := strings.Split(rest, ";")
		if len(fields) > 0 {
			for _, dn := range strings.Split(fields[0], "|") {
				dn = strings.TrimSpace(dn)
				if dn == "" {
					continue
				}
				if _, err := pki.ParseDN(dn); err != nil {
					return nil, fmt.Errorf("shellsvc: %s line %d: %v", UserMapFileName, lineNo, err)
				}
				m.DNs = append(m.DNs, dn)
			}
		}
		if len(fields) > 1 {
			m.Groups = splitCommaList(fields[1])
		}
		if len(fields) > 2 {
			m.Reserved = splitCommaList(fields[2])
		}
		um.mappings = append(um.mappings, m)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("shellsvc: read user map: %w", err)
	}
	return um, nil
}

// LoadUserMap parses the map file at path.
func LoadUserMap(path string) (*UserMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shellsvc: %w", err)
	}
	defer f.Close()
	return ParseUserMap(f)
}

func splitCommaList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e != "" {
			out = append(out, e)
		}
	}
	return out
}

// Mappings returns a copy of the parsed tuples.
func (um *UserMap) Mappings() []Mapping {
	return append([]Mapping(nil), um.mappings...)
}

// Resolve returns the local user designated for dn: the first tuple whose
// DN list matches (structurally, allowing prefixes) or whose group list
// contains a VO group the DN belongs to.
func (um *UserMap) Resolve(dn pki.DN, groups GroupResolver) (string, bool) {
	if dn.IsZero() {
		return "", false
	}
	for _, m := range um.mappings {
		for _, entry := range m.DNs {
			p, err := pki.ParseDN(entry)
			if err != nil {
				continue
			}
			if dn.HasPrefix(p) {
				return m.LocalUser, true
			}
		}
		if groups != nil {
			for _, g := range m.Groups {
				if groups.IsMember(g, dn) {
					return m.LocalUser, true
				}
			}
		}
	}
	return "", false
}
