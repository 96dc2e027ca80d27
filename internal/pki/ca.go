package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"time"
)

// Identity bundles a certificate, its private key, and the chain of
// intermediates (closest first) needed to reach a trust anchor.
type Identity struct {
	Cert  *x509.Certificate
	Key   crypto.Signer
	Chain []*x509.Certificate // intermediates, closest to Cert first
}

// DN returns the subject DN of the identity's certificate.
func (id *Identity) DN() DN { return FromPKIXName(id.Cert.Subject) }

// TLSCertificate assembles a tls.Certificate presenting the full chain.
func (id *Identity) TLSCertificate() tls.Certificate {
	chain := [][]byte{id.Cert.Raw}
	for _, c := range id.Chain {
		chain = append(chain, c.Raw)
	}
	return tls.Certificate{Certificate: chain, PrivateKey: id.Key}
}

// CertPEM returns the leaf certificate in PEM form.
func (id *Identity) CertPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: id.Cert.Raw})
}

// ChainPEM returns leaf + intermediates in PEM form, leaf first.
func (id *Identity) ChainPEM() []byte {
	out := id.CertPEM()
	for _, c := range id.Chain {
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Raw})...)
	}
	return out
}

// KeyPEM returns the private key in unencrypted PKCS#8 PEM form. Grid proxy
// credentials are stored with unencrypted keys by design (paper §2.6).
func (id *Identity) KeyPEM() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(id.Key)
	if err != nil {
		return nil, fmt.Errorf("pki: marshal key: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der}), nil
}

// CA is a minimal certificate authority for issuing grid-style user and
// host certificates. It plays the role of the DOE Science Grid CA in the
// paper's deployment (substitution listed in the README's "Substitutions").
type CA struct {
	Cert *x509.Certificate
	Key  crypto.Signer

	serial atomic.Int64
}

// NewCA creates a self-signed CA with the given subject DN.
func NewCA(subject DN) (*CA, error) {
	if len(subject) == 0 {
		return nil, fmt.Errorf("pki: CA subject must not be empty")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generate CA key: %w", err)
	}
	tpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               subject.ToPKIXName(),
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tpl, tpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("pki: self-sign CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	ca := &CA{Cert: cert, Key: key}
	ca.serial.Store(1)
	return ca, nil
}

func (ca *CA) nextSerial() *big.Int {
	return big.NewInt(ca.serial.Add(1))
}

// Pool returns a cert pool containing only this CA, for verification.
func (ca *CA) Pool() *x509.CertPool {
	p := x509.NewCertPool()
	p.AddCert(ca.Cert)
	return p
}

// issue signs a leaf certificate from the template.
func (ca *CA) issue(tpl *x509.Certificate) (*Identity, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pki: generate key: %w", err)
	}
	tpl.SerialNumber = ca.nextSerial()
	der, err := x509.CreateCertificate(rand.Reader, tpl, ca.Cert, &key.PublicKey, ca.Key)
	if err != nil {
		return nil, fmt.Errorf("pki: sign certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Identity{Cert: cert, Key: key}, nil
}

// IssueUser issues an end-entity certificate for an individual, in the DOE
// Science Grid style: /O=<org>/OU=People/CN=<name>.
func (ca *CA) IssueUser(subject DN, ttl time.Duration) (*Identity, error) {
	if len(subject) == 0 {
		return nil, fmt.Errorf("pki: user subject must not be empty")
	}
	return ca.issue(&x509.Certificate{
		Subject:               subject.ToPKIXName(),
		NotBefore:             time.Now().Add(-time.Minute),
		NotAfter:              time.Now().Add(ttl),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
	})
}

// IssueHost issues a server certificate: /O=<org>/OU=Services/CN=host/<fqdn>,
// with the host name (and loopback addresses, for tests) as SANs.
func (ca *CA) IssueHost(subject DN, hosts []string, ttl time.Duration) (*Identity, error) {
	tpl := &x509.Certificate{
		Subject:     subject.ToPKIXName(),
		NotBefore:   time.Now().Add(-time.Minute),
		NotAfter:    time.Now().Add(ttl),
		KeyUsage:    x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage: []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tpl.IPAddresses = append(tpl.IPAddresses, ip)
		} else {
			tpl.DNSNames = append(tpl.DNSNames, h)
		}
	}
	return ca.issue(tpl)
}

// ParseCertPEM parses the first CERTIFICATE block in the PEM input.
func ParseCertPEM(pemBytes []byte) (*x509.Certificate, error) {
	for {
		var block *pem.Block
		block, pemBytes = pem.Decode(pemBytes)
		if block == nil {
			return nil, fmt.Errorf("pki: no CERTIFICATE block found")
		}
		if block.Type == "CERTIFICATE" {
			return x509.ParseCertificate(block.Bytes)
		}
	}
}

// ParseKeyPEM parses the first PRIVATE KEY block (PKCS#8) in the PEM input.
func ParseKeyPEM(pemBytes []byte) (crypto.Signer, error) {
	for {
		var block *pem.Block
		block, pemBytes = pem.Decode(pemBytes)
		if block == nil {
			return nil, fmt.Errorf("pki: no PRIVATE KEY block found")
		}
		if block.Type == "PRIVATE KEY" {
			key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, err
			}
			signer, ok := key.(crypto.Signer)
			if !ok {
				return nil, fmt.Errorf("pki: key does not implement crypto.Signer")
			}
			return signer, nil
		}
	}
}

// ParseIdentityPEM reads a concatenated PEM bundle (cert, optional chain,
// key in any order) into an Identity.
func ParseIdentityPEM(pemBytes []byte) (*Identity, error) {
	var id Identity
	rest := pemBytes
	for {
		var block *pem.Block
		block, rest = pem.Decode(rest)
		if block == nil {
			break
		}
		switch block.Type {
		case "CERTIFICATE":
			cert, err := x509.ParseCertificate(block.Bytes)
			if err != nil {
				return nil, err
			}
			if id.Cert == nil {
				id.Cert = cert
			} else {
				id.Chain = append(id.Chain, cert)
			}
		case "PRIVATE KEY":
			key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
			if err != nil {
				return nil, err
			}
			signer, ok := key.(crypto.Signer)
			if !ok {
				return nil, fmt.Errorf("pki: unusable private key type %T", key)
			}
			id.Key = signer
		}
	}
	if id.Cert == nil {
		return nil, fmt.Errorf("pki: bundle contains no certificate")
	}
	if id.Key == nil {
		return nil, fmt.Errorf("pki: bundle contains no private key")
	}
	return &id, nil
}
