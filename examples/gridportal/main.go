// Grid portal: the paper's §2.5, §2.6 and §3 pieces working together
// over certificate-authenticated TLS:
//
//  1. a CA issues user and host certificates (clarens-certgen's role),
//
//  2. the server runs HTTPS with client-cert auth, shell service (with a
//     .clarens_user_map), proxy service, and the browser portal,
//
//  3. the user authenticates with her certificate, stores a proxy under
//     a password, and later logs in *without* the certificate via
//     proxy.login (paper §2.6),
//
//  4. she runs sandboxed commands through shell.cmd and inspects the
//     sandbox through the file service (§2.5: "visible to the file
//     service"),
//
//  5. the portal pages are fetched as a browser would.
//
//     go run ./examples/gridportal
package main

import (
	"crypto/tls"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clarens"
)

func main() {
	// --- credentials ---
	ca, err := clarens.NewCA(clarens.MustParseDN("/O=gridportal/OU=CA/CN=Demo CA"))
	if err != nil {
		log.Fatal(err)
	}
	host, err := ca.IssueHost(clarens.MustParseDN("/O=gridportal/OU=Services/CN=host\\/localhost"),
		[]string{"localhost", "127.0.0.1"}, 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	aliceDN := clarens.MustParseDN("/O=gridportal/OU=People/CN=Alice Analyst")
	alice, err := ca.IssueUser(aliceDN, 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("issued user certificate: %s\n", alice.DN())

	// --- server ---
	fileRoot, err := os.MkdirTemp("", "gridportal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fileRoot)
	userMap := filepath.Join(fileRoot, ".clarens_user_map")
	os.WriteFile(userMap, []byte("alice : /O=gridportal/OU=People/CN=Alice Analyst ;;\n"), 0o644)

	srv, err := clarens.NewServer(clarens.Config{
		Name:         "gridportal",
		FileRoot:     fileRoot,
		ShellUserMap: userMap,
		EnableProxy:  true,
		EnablePortal: true,
		TLS:          &clarens.TLSConfig{Identity: host, ClientCAs: ca.Pool()},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HTTPS server: %s\n", srv.URL())

	// Alice may read her own sandbox through the file service.
	if err := srv.Files.Grant("/sandbox/alice", clarens.AccessRead, []string{aliceDN.String()}, nil); err != nil {
		log.Fatal(err)
	}

	// --- 1. certificate login, session establishment ---
	certClient, err := clarens.Dial(srv.URL(),
		clarens.WithIdentity(alice), clarens.WithRootCAs(ca.Pool()))
	if err != nil {
		log.Fatal(err)
	}
	defer certClient.Close()
	token, err := certClient.Auth()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certificate login ok, session %s...\n", token[:8])

	// --- 2. store a proxy for later password logins + delegation ---
	proxy, err := clarens.NewProxy(alice, 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	keyPEM, err := proxy.KeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	bundle := append(proxy.ChainPEM(), keyPEM...)
	if _, err := certClient.Call("proxy.store", bundle, "correct horse battery"); err != nil {
		log.Fatal(err)
	}
	info, err := clarens.CallAs[map[string]any](certClient, "proxy.info")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proxy stored: valid=%v expires=%v\n", info["valid"], info["expires"])

	// --- 3. later: login WITHOUT the certificate, only DN + password ---
	pwClient, err := clarens.Dial(srv.URL(), clarens.WithRootCAs(ca.Pool()))
	if err != nil {
		log.Fatal(err)
	}
	defer pwClient.Close()
	if _, err := pwClient.ProxyLogin(aliceDN, "correct horse battery"); err != nil {
		log.Fatal(err)
	}
	who, err := clarens.CallAs[string](pwClient, "system.whoami")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proxy login ok, server sees: %s\n", who)

	// --- 4. sandboxed jobs through the shell service ---
	res, err := clarens.CallAs[map[string]any](pwClient, "shell.cmd",
		`mkdir results && echo "run 42: 1336 events selected" > results/summary.txt && cat results/summary.txt`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shell.cmd -> exit %v as local user %q\n", res["exit_code"], res["user"])
	fmt.Printf("  stdout: %s", res["stdout"])
	sandbox := res["sandbox"].(string)

	// The sandbox is visible to the file service (paper §2.5).
	data, err := pwClient.FileReadAll(sandbox + "/results/summary.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file.read of %s/results/summary.txt -> %q\n", sandbox, strings.TrimSpace(string(data)))

	// --- 5. the browser portal ---
	httpClient := &http.Client{Transport: &http.Transport{TLSClientConfig: certClient2TLS(ca, alice)}}
	for _, page := range []string{"index", "files", "jobs"} {
		resp, err := httpClient.Get(srv.URL() + "/portal/" + page)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ok := resp.StatusCode == 200 && strings.Contains(string(body), "Clarens Portal")
		fmt.Printf("GET /portal/%-6s -> %d (%d bytes, portal chrome: %v)\n", page, resp.StatusCode, len(body), ok)
		if !ok {
			log.Fatal("portal page malformed")
		}
	}
	fmt.Println("\ngrid portal walkthrough complete.")
}

// certClient2TLS builds the TLS config a browser with Alice's certificate
// imported would use.
func certClient2TLS(ca *clarens.CA, id *clarens.Identity) *tls.Config {
	return &tls.Config{
		RootCAs:      ca.Pool(),
		Certificates: []tls.Certificate{id.TLSCertificate()},
	}
}
