// Package proxysvc implements the Clarens proxy service (paper §2.6):
// password-protected storage and retrieval of proxy certificates on the
// server. Stored proxies enable (a) logging into the server knowing only
// the DN and password, (b) delegation — others acting with the user's
// proxy, and (c) attaching a fresh proxy to an existing session to renew
// it or to add delegation to sessions initiated with browser (CA-issued)
// certificates.
package proxysvc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"clarens/internal/core"
	"clarens/internal/pki"
	"clarens/internal/rpc"
)

const bucket = "proxies"

// delegationBucket stores one-time delegation secrets (hashed); the
// federated meta-scheduler mints these to carry a job owner's identity
// to a peer server.
const delegationBucket = "delegations"

// AttachedProxyAttr is the session attribute holding the DN of the stored
// proxy attached to the session.
const AttachedProxyAttr = "attached_proxy"

// DelegatedIssuerAttr is the session attribute recording which issuer
// server vouched for a session created through proxy.login_delegated.
const DelegatedIssuerAttr = "delegated_issuer"

// DefaultDelegationTTL bounds how long an unredeemed delegation secret
// stays valid.
const DefaultDelegationTTL = 2 * time.Minute

// delegationSweepInterval rate-limits garbage collection of expired
// delegation records.
const delegationSweepInterval = time.Minute

// Service is the Clarens proxy service.
type Service struct {
	srv *core.Server
	// MaxTTL bounds how long a stored proxy is honored for login after
	// its certificate expiry cannot be checked (defense in depth).
	MaxTTL time.Duration
	// TrustIssuer gates which remote issuer URLs login_delegated will
	// call back to verify a delegation; nil (the default) refuses every
	// remote issuer. The assembly wires it only when federation is
	// enabled, and only to an explicit operator-configured allowlist of
	// peer URLs (clarens.Config.FederationIssuers /
	// Server.TrustFederationIssuers).
	//
	// SECURITY: never wire this to the discovery cache. The station
	// network ingests unauthenticated UDP, so anyone who can plant a
	// discovery record for their own URL could vouch for arbitrary DNs —
	// the callback would ask the attacker whether the attacker is
	// trustworthy. Production can harden further with TLS peer
	// certificates on this callback (ROADMAP federation-hardening item).
	TrustIssuer func(url string) bool
	// VerifyRemote calls a remote issuer's proxy.check_delegation and
	// reports whether the (dn, secret) pair was vouched for. Set at
	// assembly time (it needs an RPC client); nil refuses remote issuers.
	VerifyRemote func(issuerURL, dn, secret string) (bool, error)

	sweepMu   sync.Mutex
	lastSweep time.Time // last delegation-bucket GC pass
}

// record is the stored form of a proxy.
type record struct {
	Sealed  []byte    `json:"sealed"` // seal(password, PEM bundle)
	Stored  time.Time `json:"stored"`
	Expires time.Time `json:"expires"` // proxy certificate expiry
}

// New creates the proxy service.
func New(srv *core.Server) *Service {
	return &Service{srv: srv, MaxTTL: 7 * 24 * time.Hour}
}

// Name implements core.Service.
func (s *Service) Name() string { return "proxy" }

// Methods implements core.Service.
func (s *Service) Methods() []core.Method {
	return []core.Method{
		{
			Name:   "proxy.store",
			Help:   "Store a proxy credential (PEM bundle: proxy cert, chain, unencrypted key) sealed under a password. The proxy subject must match the caller or the caller must be an administrator.",
			Public: true,
			Func:   core.Func2(s.store),
		},
		{
			Name:   "proxy.retrieve",
			Help:   "Retrieve the caller's stored proxy PEM bundle with the password used to store it (delegation: administrators may retrieve any DN's proxy with its password).",
			Public: true,
			Func:   core.Func2(s.retrieve),
		},
		{
			Name:   "proxy.login",
			Help:   "Create a session knowing only a DN and the proxy password; returns the session token.",
			Public: true,
			Func:   core.Func2(s.login),
		},
		{
			Name:   "proxy.attach",
			Help:   "Attach the stored proxy to the current session (renewal / delegation for sessions started without a proxy).",
			Public: true,
			Func:   core.Func1(s.attach),
		},
		{
			Name:   "proxy.delete",
			Help:   "Delete the caller's stored proxy (requires the password).",
			Public: true,
			Func:   core.Func1(s.del),
		},
		{
			Name:   "proxy.info",
			Help:   "Return {stored, expires} metadata for the caller's stored proxy.",
			Public: true,
			Func:   core.Func0(s.info),
		},
		{
			Name: "proxy.delegate",
			Help: "Mint a one-time delegation secret for the caller's DN, valid ttl_s seconds (default 120): delegate([ttl_s]). Present it to a peer server's proxy.login_delegated to act as the caller there.",
			Func: core.Func1(s.rpcDelegate),
		},
		{
			Name:   "proxy.check_delegation",
			Help:   "Validate and consume a one-time delegation secret minted by this server: check_delegation(dn, secret). Called back by peer servers during delegated login.",
			Public: true,
			Func:   core.Func2(s.rpcCheckDelegation),
		},
		{
			Name:   "proxy.login_delegated",
			Help:   "Create a session for dn from a delegation secret: login_delegated(dn, secret, [issuer_url]). With an issuer URL the secret is verified by calling the issuer back (the issuer must be on this server's configured allowlist); without one the secret must have been minted locally. Returns the session token.",
			Public: true,
			Func:   core.Func3(s.rpcLoginDelegated),
		},
	}
}

// delegationRecord is the stored form of a delegation: only the SHA-256
// of the secret persists, with the DN it vouches for and its expiry.
type delegationRecord struct {
	DN      string    `json:"dn"`
	Expires time.Time `json:"expires"`
}

func hashSecret(secret string) string {
	sum := sha256.Sum256([]byte(secret))
	return hex.EncodeToString(sum[:])
}

// IssueDelegation mints a one-time secret that vouches for dn until ttl
// elapses (ttl<=0 uses DefaultDelegationTTL). Redeeming it — locally via
// login_delegated or remotely via check_delegation — consumes it. This is
// the handoff the federated meta-scheduler uses so remote execution runs
// as the submitting DN, in the spirit of the paper's §2.6 delegation
// ("allows the proxy to be used on behalf of the user by others").
func (s *Service) IssueDelegation(dn pki.DN, ttl time.Duration) (string, error) {
	if dn.IsZero() {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: delegation needs a DN"}
	}
	if ttl <= 0 {
		ttl = DefaultDelegationTTL
	}
	s.sweepDelegations(time.Now())
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	secret := hex.EncodeToString(b[:])
	rec := delegationRecord{DN: dn.String(), Expires: time.Now().Add(ttl)}
	if err := s.srv.Store().PutJSON(delegationBucket, hashSecret(secret), &rec); err != nil {
		return "", err
	}
	return secret, nil
}

// CheckDelegation validates a (dn, secret) pair against the local
// delegation table and consumes the secret — each delegation is
// single-use, so a leaked secret cannot be replayed after redemption.
func (s *Service) CheckDelegation(dnStr, secret string) bool {
	if secret == "" || dnStr == "" {
		return false
	}
	key := hashSecret(secret)
	var rec delegationRecord
	found, err := s.srv.Store().GetJSON(delegationBucket, key, &rec)
	if err != nil || !found {
		return false
	}
	s.srv.Store().Delete(delegationBucket, key)
	return rec.DN == dnStr && time.Now().Before(rec.Expires)
}

// sweepDelegations garbage-collects expired delegation records. Secrets
// are only deleted eagerly when redeemed, and many are minted but never
// redeemed (every failed forward handoff leaves one), so without a sweep
// the bucket grows forever. Runs from IssueDelegation at most once per
// delegationSweepInterval — the table can only grow while delegations
// are being minted, so that is also when it needs collecting.
func (s *Service) sweepDelegations(now time.Time) {
	s.sweepMu.Lock()
	if now.Sub(s.lastSweep) < delegationSweepInterval {
		s.sweepMu.Unlock()
		return
	}
	s.lastSweep = now
	s.sweepMu.Unlock()
	var expired []string
	s.srv.Store().ForEach(delegationBucket, func(key string, value []byte) error {
		var rec delegationRecord
		if json.Unmarshal(value, &rec) != nil || now.After(rec.Expires) {
			expired = append(expired, key)
		}
		return nil
	})
	for _, key := range expired {
		s.srv.Store().Delete(delegationBucket, key)
	}
}

func (s *Service) rpcDelegate(ctx *core.Context, ttl core.Opt[int]) (string, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return "", err
	}
	ttlS := min(max(ttl.Or(int(DefaultDelegationTTL.Seconds())), 1), 3600)
	return s.IssueDelegation(ctx.DN, time.Duration(ttlS)*time.Second)
}

func (s *Service) rpcCheckDelegation(ctx *core.Context, dnStr, secret string) (bool, error) {
	return s.CheckDelegation(dnStr, secret), nil
}

func (s *Service) rpcLoginDelegated(ctx *core.Context, dnStr, secret string, issuerArg core.Opt[string]) (string, error) {
	issuer := issuerArg.Or("")
	dn, perr := pki.ParseDN(dnStr)
	if perr != nil {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: perr.Error()}
	}
	if issuer == "" {
		if !s.CheckDelegation(dnStr, secret) {
			return "", &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "proxy: delegation not recognized (expired, consumed, or never issued)"}
		}
	} else {
		if s.TrustIssuer == nil || !s.TrustIssuer(issuer) {
			return "", &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "proxy: delegation issuer is not on this server's trusted-issuer allowlist"}
		}
		if s.VerifyRemote == nil {
			return "", &rpc.Fault{Code: rpc.CodeApplication, Message: "proxy: remote delegation verification not configured"}
		}
		ok, err := s.VerifyRemote(issuer, dnStr, secret)
		if err != nil {
			return "", &rpc.Fault{Code: rpc.CodeApplication, Message: "proxy: delegation issuer unreachable: " + err.Error()}
		}
		if !ok {
			return "", &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "proxy: issuer refused the delegation"}
		}
	}
	sess, err := s.srv.NewSessionFor(dn)
	if err != nil {
		return "", err
	}
	if issuer != "" {
		if err := s.srv.Sessions().SetAttr(sess.ID, DelegatedIssuerAttr, issuer); err != nil {
			return "", err
		}
	}
	return sess.ID, nil
}

// Store validates and stores a proxy PEM bundle for its subject user.
func (s *Service) Store(pemBundle []byte, password string) (pki.DN, error) {
	if password == "" {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: empty password"}
	}
	id, err := pki.ParseIdentityPEM(pemBundle)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: " + err.Error()}
	}
	if !pki.IsProxy(id.Cert) {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: bundle is not a proxy certificate"}
	}
	now := time.Now()
	if now.After(id.Cert.NotAfter) {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: certificate already expired"}
	}
	owner := pki.EffectiveDN(id.Cert)
	sealed, err := seal(password, pemBundle)
	if err != nil {
		return nil, err
	}
	rec := record{Sealed: sealed, Stored: now, Expires: id.Cert.NotAfter}
	if err := s.srv.Store().PutJSON(bucket, owner.String(), &rec); err != nil {
		return nil, err
	}
	return owner, nil
}

// Retrieve unseals the proxy stored for dn.
func (s *Service) Retrieve(dn pki.DN, password string) ([]byte, error) {
	var rec record
	found, err := s.srv.Store().GetJSON(bucket, dn.String(), &rec)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: "proxy: no stored proxy for " + dn.String()}
	}
	if time.Now().After(rec.Expires) {
		return nil, &rpc.Fault{Code: rpc.CodeApplication, Message: "proxy: stored proxy has expired"}
	}
	pem, err := open(password, rec.Sealed)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: err.Error()}
	}
	return pem, nil
}

func (s *Service) store(ctx *core.Context, pemBundle []byte, password string) (bool, error) {
	owner, err := s.Store(pemBundle, password)
	if err != nil {
		return false, err
	}
	// The proxy's user must be the caller (or an admin storing on behalf;
	// anonymous callers may store a proxy for its own subject — that is
	// exactly the browser-less bootstrap the paper supports).
	if ctx.Authenticated() && !owner.Equal(ctx.DN) && !s.srv.VO().IsServerAdmin(ctx.DN) {
		s.srv.Store().Delete(bucket, owner.String())
		return false, &rpc.Fault{Code: rpc.CodeAccessDenied, Message: "proxy: subject does not match caller"}
	}
	return true, nil
}

func (s *Service) retrieve(ctx *core.Context, password string, owner core.Opt[string]) ([]byte, error) {
	dn := ctx.DN
	if dnStr, ok := owner.Get(); ok {
		other, perr := pki.ParseDN(dnStr)
		if perr != nil {
			return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: perr.Error()}
		}
		// Delegation: anyone holding the password may retrieve a proxy
		// explicitly shared with them ("allows the proxy to be used on
		// behalf of the user by others").
		dn = other
	}
	if dn.IsZero() {
		return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: "proxy: no DN given and caller anonymous"}
	}
	return s.Retrieve(dn, password)
}

func (s *Service) login(ctx *core.Context, dnStr, password string) (string, error) {
	dn, perr := pki.ParseDN(dnStr)
	if perr != nil {
		return "", &rpc.Fault{Code: rpc.CodeInvalidParams, Message: perr.Error()}
	}
	// Unsealing proves knowledge of the password; the stored proxy proves
	// the DN held a valid credential when it was stored.
	if _, err := s.Retrieve(dn, password); err != nil {
		return "", err
	}
	sess, err := s.srv.NewSessionFor(dn)
	if err != nil {
		return "", err
	}
	if err := s.srv.Sessions().SetAttr(sess.ID, AttachedProxyAttr, dn.String()); err != nil {
		return "", err
	}
	return sess.ID, nil
}

func (s *Service) attach(ctx *core.Context, password string) (bool, error) {
	if ctx.Session == nil {
		return false, &rpc.Fault{Code: rpc.CodeNotAuthorized, Message: "proxy: no current session to attach to"}
	}
	if _, err := s.Retrieve(ctx.DN, password); err != nil {
		return false, err
	}
	if err := s.srv.Sessions().SetAttr(ctx.Session.ID, AttachedProxyAttr, ctx.DN.String()); err != nil {
		return false, err
	}
	// Attaching also renews the session, as the paper describes.
	return true, s.srv.Sessions().Touch(ctx.Session.ID)
}

func (s *Service) del(ctx *core.Context, password string) (bool, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return false, err
	}
	if _, err := s.Retrieve(ctx.DN, password); err != nil {
		return false, err
	}
	return true, s.srv.Store().Delete(bucket, ctx.DN.String())
}

func (s *Service) info(ctx *core.Context) (map[string]any, error) {
	if err := ctx.RequireAuthenticated(); err != nil {
		return nil, err
	}
	var rec record
	found, err := s.srv.Store().GetJSON(bucket, ctx.DN.String(), &rec)
	if err != nil {
		return nil, err
	}
	if !found {
		return map[string]any{"stored": false}, nil
	}
	return map[string]any{
		"stored":  true,
		"since":   rec.Stored.UTC(),
		"expires": rec.Expires.UTC(),
		"valid":   time.Now().Before(rec.Expires),
	}, nil
}

var _ core.Service = (*Service)(nil)
