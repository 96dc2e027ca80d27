// Command clarens-certgen generates grid-style test credentials: a CA,
// user and host certificates, and proxy certificates, in the PEM layouts
// the framework consumes. It plays the DOE Science Grid CA role for local
// deployments (README "Substitutions").
//
//	clarens-certgen -dir ./creds \
//	  -org testgrid.org -users "Alice,Bob" -hosts "localhost,127.0.0.1"
//
// writes ca.pem, alice.pem, bob.pem (cert+key bundles), host.pem, and a
// proxy bundle per user (alice-proxy.pem).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clarens/internal/pki"
)

func main() {
	var (
		dir      = flag.String("dir", "creds", "output directory")
		org      = flag.String("org", "testgrid.org", "organization for DNs")
		users    = flag.String("users", "Alice", "comma-separated user common names")
		hosts    = flag.String("hosts", "localhost,127.0.0.1", "host SANs for the server certificate")
		userTTL  = flag.Duration("user-ttl", 365*24*time.Hour, "user certificate lifetime")
		proxyTTL = flag.Duration("proxy-ttl", 12*time.Hour, "proxy certificate lifetime")
	)
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	ca, err := pki.NewCA(pki.MustParseDN(fmt.Sprintf("/O=%s/OU=Certificate Authorities/CN=%s CA", *org, *org)))
	if err != nil {
		log.Fatal(err)
	}
	caKey, err := (&pki.Identity{Cert: ca.Cert, Key: ca.Key}).KeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	caBundle := append((&pki.Identity{Cert: ca.Cert, Key: ca.Key}).CertPEM(), caKey...)
	writeFile(*dir, "ca.pem", caBundle)
	writeFile(*dir, "ca-cert.pem", (&pki.Identity{Cert: ca.Cert, Key: ca.Key}).CertPEM())

	hostList := splitList(*hosts)
	hostDN := pki.MustParseDN(fmt.Sprintf("/O=%s/OU=Services/CN=host\\/%s", *org, hostList[0]))
	host, err := ca.IssueHost(hostDN, hostList, *userTTL)
	if err != nil {
		log.Fatal(err)
	}
	writeIdentity(*dir, "host.pem", host)

	for _, cn := range splitList(*users) {
		dn := pki.MustParseDN(fmt.Sprintf("/O=%s/OU=People/CN=%s", *org, cn))
		user, err := ca.IssueUser(dn, *userTTL)
		if err != nil {
			log.Fatal(err)
		}
		base := strings.ToLower(strings.ReplaceAll(cn, " ", "-"))
		writeIdentity(*dir, base+".pem", user)

		proxy, err := pki.NewProxy(user, *proxyTTL)
		if err != nil {
			log.Fatal(err)
		}
		writeIdentity(*dir, base+"-proxy.pem", proxy)
		fmt.Printf("user %s -> %s.pem, %s-proxy.pem (DN %s)\n", cn, base, base, dn)
	}
	fmt.Printf("CA and host credentials in %s\n", *dir)
}

func writeIdentity(dir, name string, id *pki.Identity) {
	key, err := id.KeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	writeFile(dir, name, append(id.ChainPEM(), key...))
}

func writeFile(dir, name string, data []byte) {
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
		log.Fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e != "" {
			out = append(out, e)
		}
	}
	return out
}
