package soaprpc

// The encoding/xml DOM walker this package decoded with before it moved
// onto the shared one-pass lexer, kept unchanged as the fuzz oracle:
// whatever the decoder accepts, this walker must accept too, with equal
// values. Only the two entry points are renamed so they do not collide
// with the Codec methods.

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"clarens/internal/rpc"
)

type element struct {
	name     string
	attrs    map[string]string
	text     string
	children []*element
}

// parseElement builds a lightweight DOM below the given start element,
// which is depth elements down from the document root.
func parseElement(d *xml.Decoder, se xml.StartElement, depth int) (*element, error) {
	if depth > rpc.MaxDepth {
		return nil, fmt.Errorf("soaprpc: elements nested deeper than %d", rpc.MaxDepth)
	}
	el := &element{name: se.Name.Local, attrs: map[string]string{}}
	for _, a := range se.Attr {
		el.attrs[a.Name.Local] = a.Value
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			el.text += string(t)
		case xml.StartElement:
			child, err := parseElement(d, t, depth+1)
			if err != nil {
				return nil, err
			}
			el.children = append(el.children, child)
		case xml.EndElement:
			return el, nil
		}
	}
}

func (el *element) child(name string) *element {
	for _, c := range el.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

func decodeTyped(el *element) (any, error) {
	if el.attrs["nil"] == "true" || el.attrs["null"] == "1" {
		return nil, nil
	}
	xsiType := el.attrs["type"]
	// Strip the namespace prefix: xsd:string -> string.
	if i := strings.IndexByte(xsiType, ':'); i >= 0 {
		xsiType = xsiType[i+1:]
	}
	text := strings.TrimSpace(el.text)
	switch xsiType {
	case "string":
		// Whitespace is significant in strings; use the raw text.
		return el.text, nil
	case "boolean":
		switch text {
		case "true", "1":
			return true, nil
		case "false", "0":
			return false, nil
		}
		return nil, fmt.Errorf("soaprpc: bad boolean %q", text)
	case "int", "long", "short", "byte", "integer":
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad %s %q", xsiType, text)
		}
		return int(n), nil
	case "double", "float", "decimal":
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad %s %q", xsiType, text)
		}
		return f, nil
	case "base64Binary", "base64":
		data, err := base64.StdEncoding.DecodeString(text)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad base64: %w", err)
		}
		return data, nil
	case "dateTime":
		t, err := time.Parse(time.RFC3339Nano, text)
		if err != nil {
			return nil, fmt.Errorf("soaprpc: bad dateTime %q", text)
		}
		return t.UTC(), nil
	case "Array":
		arr := make([]any, 0, len(el.children))
		for _, c := range el.children {
			v, err := decodeTyped(c)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
		}
		return arr, nil
	case "Struct":
		m := make(map[string]any, len(el.children))
		for _, c := range el.children {
			v, err := decodeTyped(c)
			if err != nil {
				return nil, err
			}
			m[c.name] = v
		}
		return m, nil
	case "":
		// Untyped: infer a struct if there are children, string otherwise.
		if len(el.children) > 0 {
			m := make(map[string]any, len(el.children))
			for _, c := range el.children {
				v, err := decodeTyped(c)
				if err != nil {
					return nil, err
				}
				m[c.name] = v
			}
			return m, nil
		}
		return el.text, nil
	default:
		return nil, fmt.Errorf("soaprpc: unsupported xsi:type %q", xsiType)
	}
}

// parseEnvelope returns the first element inside Body.
func parseEnvelope(r io.Reader) (*element, error) {
	d := xml.NewDecoder(r)
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != "Envelope" {
				return nil, fmt.Errorf("soaprpc: expected Envelope, got %s", se.Name.Local)
			}
			break
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != "Body" {
				// Skip Header or other children of Envelope.
				if err := d.Skip(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return nil, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return parseElement(d, se, 3) // Envelope, Body, se
		}
		if _, ok := tok.(xml.EndElement); ok {
			return nil, fmt.Errorf("soaprpc: empty Body")
		}
	}
}

func referenceDecodeRequest(r io.Reader) (*rpc.Request, error) {
	call, err := parseEnvelope(r)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	req := &rpc.Request{Method: call.name}
	for i, c := range call.children {
		v, err := decodeTyped(c)
		if err != nil {
			return nil, &rpc.Fault{Code: rpc.CodeInvalidParams, Message: fmt.Sprintf("param %d: %v", i, err)}
		}
		req.Params = append(req.Params, v)
	}
	return req, nil
}

func referenceDecodeResponse(r io.Reader) (*rpc.Response, error) {
	body, err := parseEnvelope(r)
	if err != nil {
		return nil, fmt.Errorf("soaprpc: %w", err)
	}
	if body.name == "Fault" {
		f := &rpc.Fault{Code: rpc.CodeApplication}
		if fs := body.child("faultstring"); fs != nil {
			f.Message = strings.TrimSpace(fs.text)
		}
		if det := body.child("detail"); det != nil {
			if code := det.child("code"); code != nil {
				if n, err := strconv.Atoi(strings.TrimSpace(code.text)); err == nil {
					f.Code = n
				}
			}
		}
		return &rpc.Response{Fault: f}, nil
	}
	ret := body.child("return")
	if ret == nil {
		return nil, fmt.Errorf("soaprpc: response has no return element")
	}
	v, err := decodeTyped(ret)
	if err != nil {
		return nil, err
	}
	return &rpc.Response{Result: v}, nil
}
