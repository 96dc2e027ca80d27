// Package ws is a minimal RFC 6455 WebSocket implementation — just
// enough transport for the push-event plane: the opening handshake
// (server upgrade and client dial), text/binary data frames with
// fragmentation on read, ping/pong keepalive, and clean closes. The
// repo is dependency-free by design, so this is written against the
// standard library only.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Frame opcodes (RFC 6455 §5.2).
const (
	OpContinuation = 0x0
	OpText         = 0x1
	OpBinary       = 0x2
	OpClose        = 0x8
	OpPing         = 0x9
	OpPong         = 0xA
)

// wsGUID is the magic key suffix of the opening handshake (§1.3).
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// MaxMessage bounds a frame and a reassembled message, unless LimitReads
// lowered the bound; larger peers are cut off.
const MaxMessage = 8 << 20

// frameChunk is the most a frame's payload buffer holds before any of
// the payload has arrived.
const frameChunk = 64 << 10

// ErrClosed is returned by ReadMessage after a close frame has been
// received or the connection has been closed locally.
var ErrClosed = errors.New("ws: connection closed")

// Conn is one WebSocket connection. Reads must come from a single
// goroutine; writes are internally serialized and may come from many.
type Conn struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool // client side masks outgoing frames
	limit  int  // read bound: MaxMessage, or frameChunk after LimitReads

	wmu       sync.Mutex
	closeOnce sync.Once
	closeErr  error
}

func newConn(c net.Conn, br *bufio.Reader, client bool) *Conn {
	if br == nil {
		br = bufio.NewReader(c)
	}
	return &Conn{conn: c, br: br, client: client, limit: MaxMessage}
}

// LimitReads bounds every frame and message c reads to 64 KiB, which a
// client's subscription ops fit in, so each frame is one exact
// allocation. Call it before the first read.
func (c *Conn) LimitReads() { c.limit = frameChunk }

// Upgrade performs the server side of the opening handshake, hijacking
// the HTTP connection. On failure it writes an HTTP error response to w
// and returns the error; on success the caller owns the returned Conn
// (w must not be touched again).
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		http.Error(w, "websocket: GET required", http.StatusMethodNotAllowed)
		return nil, errors.New("ws: method not GET")
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		http.Error(w, "websocket: upgrade required", http.StatusBadRequest)
		return nil, errors.New("ws: not an upgrade request")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "websocket: version 13 required", http.StatusUpgradeRequired)
		return nil, fmt.Errorf("ws: unsupported version %q", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "websocket: missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, errors.New("ws: missing key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket: connection cannot be hijacked", http.StatusInternalServerError)
		return nil, errors.New("ws: ResponseWriter is not a Hijacker")
	}
	netConn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	netConn.SetDeadline(time.Time{})
	if _, err := netConn.Write([]byte(resp)); err != nil {
		netConn.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}
	return newConn(netConn, rw.Reader, false), nil
}

func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

func acceptKey(key string) string {
	sum := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(sum[:])
}

// Dial opens a client WebSocket connection. rawURL may use the ws,
// wss, http, or https scheme; header carries extra handshake headers
// (e.g. the session token); tlsCfg applies to wss/https.
func Dial(rawURL string, header http.Header, tlsCfg *tls.Config, timeout time.Duration) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("ws: parse url: %w", err)
	}
	secure := false
	switch u.Scheme {
	case "ws", "http":
	case "wss", "https":
		secure = true
	default:
		return nil, fmt.Errorf("ws: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		if secure {
			host += ":443"
		} else {
			host += ":80"
		}
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	d := &net.Dialer{Timeout: timeout}
	var netConn net.Conn
	if secure {
		cfg := tlsCfg
		if cfg == nil {
			cfg = &tls.Config{}
		}
		if cfg.ServerName == "" {
			cfg = cfg.Clone()
			cfg.ServerName = u.Hostname()
		}
		netConn, err = tls.DialWithDialer(d, "tcp", host, cfg)
	} else {
		netConn, err = d.Dial("tcp", host)
	}
	if err != nil {
		return nil, fmt.Errorf("ws: dial: %w", err)
	}
	netConn.SetDeadline(time.Now().Add(timeout))

	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		netConn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(nonce)
	path := u.RequestURI()
	if path == "" {
		path = "/"
	}
	var req strings.Builder
	fmt.Fprintf(&req, "GET %s HTTP/1.1\r\nHost: %s\r\n", path, u.Host)
	req.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&req, "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n", key)
	for name, vals := range header {
		for _, v := range vals {
			fmt.Fprintf(&req, "%s: %s\r\n", name, v)
		}
	}
	req.WriteString("\r\n")
	if _, err := netConn.Write([]byte(req.String())); err != nil {
		netConn.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}
	br := bufio.NewReader(netConn)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		netConn.Close()
		return nil, fmt.Errorf("ws: read handshake: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		netConn.Close()
		return nil, fmt.Errorf("ws: handshake rejected: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		netConn.Close()
		return nil, fmt.Errorf("ws: bad Sec-WebSocket-Accept %q", got)
	}
	netConn.SetDeadline(time.Time{})
	return newConn(netConn, br, true), nil
}

// SetReadDeadline bounds the next ReadMessage.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// WriteMessage sends one data message (OpText or OpBinary) as a single
// unfragmented frame. Safe for concurrent use.
func (c *Conn) WriteMessage(opcode int, payload []byte) error {
	if opcode != OpText && opcode != OpBinary {
		return fmt.Errorf("ws: invalid data opcode %#x", opcode)
	}
	return c.writeFrame(byte(opcode), payload)
}

// Ping sends a ping control frame (payload may be nil, max 125 bytes).
func (c *Conn) Ping(payload []byte) error { return c.writeFrame(OpPing, payload) }

func (c *Conn) writeFrame(opcode byte, payload []byte) error {
	if opcode >= OpClose && len(payload) > 125 {
		return errors.New("ws: control frame payload over 125 bytes")
	}
	var hdr [14]byte
	hdr[0] = 0x80 | opcode // FIN always set: we never fragment writes
	n := 2
	switch {
	case len(payload) <= 125:
		hdr[1] = byte(len(payload))
	case len(payload) <= 0xFFFF:
		hdr[1] = 126
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(payload)))
		n = 4
	default:
		hdr[1] = 127
		binary.BigEndian.PutUint64(hdr[2:10], uint64(len(payload)))
		n = 10
	}
	buf := payload
	if c.client {
		hdr[1] |= 0x80
		var mask [4]byte
		if _, err := rand.Read(mask[:]); err != nil {
			return err
		}
		copy(hdr[n:], mask[:])
		n += 4
		buf = make([]byte, len(payload))
		for i, b := range payload {
			buf[i] = b ^ mask[i&3]
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.conn.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := c.conn.Write(buf)
	return err
}

// ReadMessage returns the next data message, transparently answering
// pings, absorbing pongs, and reassembling fragmented messages. After a
// close frame (or local Close) it returns ErrClosed.
func (c *Conn) ReadMessage() (opcode int, payload []byte, err error) {
	var msg []byte
	msgOp := 0
	for {
		op, fin, data, err := c.readFrame()
		if err != nil {
			return 0, nil, err
		}
		switch op {
		case OpPing:
			// Best-effort pong; a write failure surfaces on the next write.
			c.writeFrame(OpPong, data)
		case OpPong:
			// Keepalive answer; nothing to do.
		case OpClose:
			// Echo the close (status code only) and tear down.
			echo := data
			if len(echo) > 2 {
				echo = echo[:2]
			}
			c.writeFrame(OpClose, echo)
			c.conn.Close()
			return 0, nil, ErrClosed
		case OpContinuation:
			if msgOp == 0 {
				return 0, nil, errors.New("ws: continuation without initial frame")
			}
			if len(msg)+len(data) > c.limit {
				c.Close()
				return 0, nil, errors.New("ws: message too large")
			}
			msg = append(msg, data...)
			if fin {
				return msgOp, msg, nil
			}
		case OpText, OpBinary:
			if msgOp != 0 {
				return 0, nil, errors.New("ws: new data frame inside fragmented message")
			}
			if fin {
				return int(op), data, nil
			}
			msgOp = int(op)
			msg = data
		default:
			return 0, nil, fmt.Errorf("ws: reserved opcode %#x", op)
		}
	}
}

func (c *Conn) readFrame() (opcode byte, fin bool, payload []byte, err error) {
	var hdr [2]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	if hdr[0]&0x70 != 0 {
		return 0, false, nil, errors.New("ws: nonzero reserved bits (no extensions negotiated)")
	}
	fin = hdr[0]&0x80 != 0
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	if opcode >= OpClose {
		if !fin || length > 125 {
			return 0, false, nil, errors.New("ws: malformed control frame")
		}
	}
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(c.br, ext[:]); err != nil {
			return 0, false, nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > uint64(c.limit) {
		c.Close()
		return 0, false, nil, errors.New("ws: frame too large")
	}
	// RFC 6455 §5.1: clients MUST mask, servers MUST NOT.
	if !c.client && !masked && opcode != OpClose {
		return 0, false, nil, errors.New("ws: unmasked client frame")
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(c.br, mask[:]); err != nil {
			return 0, false, nil, err
		}
	}
	// Allocate as the payload arrives, not as the header claims: a peer
	// that announces MaxMessage and then stalls holds one chunk. The
	// buffer doubles as it fills, so a payload costs at most twice its
	// size in allocations.
	payload = make([]byte, 0, min(length, frameChunk))
	for {
		n, err := io.ReadFull(c.br, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+n]
		if err != nil {
			return 0, false, nil, err
		}
		if uint64(len(payload)) == length {
			break
		}
		payload = append(make([]byte, 0, min(length, 2*uint64(cap(payload)))), payload...)
	}
	if masked {
		for i := range payload {
			payload[i] ^= mask[i&3]
		}
	}
	return opcode, fin, payload, nil
}

// Close sends a close frame (best effort, bounded) and closes the
// underlying connection. Safe to call multiple times.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		var status [2]byte
		binary.BigEndian.PutUint16(status[:], 1000) // normal closure
		c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		c.writeFrame(OpClose, status[:])
		c.closeErr = c.conn.Close()
	})
	return c.closeErr
}
