package xmlrpc

// The encoding/xml token walker this package decoded with before its
// one-pass parser, kept unchanged as the fuzz oracle: whatever the
// parser accepts, this walker must accept too, with equal values. Only
// the two entry points are renamed so they do not collide with the
// Codec methods.

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"clarens/internal/rpc"
)

// --- decoding ---

type decoder struct {
	d *xml.Decoder
}

// next returns the next token skipping whitespace-only character data,
// comments, and processing instructions.
func (dec *decoder) next() (xml.Token, error) {
	for {
		tok, err := dec.d.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			if len(bytes.TrimSpace(t)) == 0 {
				continue
			}
			return tok, nil
		case xml.Comment, xml.ProcInst, xml.Directive:
			continue
		default:
			return tok, nil
		}
	}
}

func (dec *decoder) expectStart(name string) (xml.StartElement, error) {
	tok, err := dec.next()
	if err != nil {
		return xml.StartElement{}, err
	}
	se, ok := tok.(xml.StartElement)
	if !ok || se.Name.Local != name {
		return xml.StartElement{}, fmt.Errorf("xmlrpc: expected <%s>, got %v", name, tok)
	}
	return se, nil
}

func (dec *decoder) expectEnd(name string) error {
	tok, err := dec.next()
	if err != nil {
		return err
	}
	ee, ok := tok.(xml.EndElement)
	if !ok || ee.Name.Local != name {
		return fmt.Errorf("xmlrpc: expected </%s>, got %v", name, tok)
	}
	return nil
}

// text reads character data until the matching end element of se.
func (dec *decoder) text(se xml.StartElement) (string, error) {
	var sb strings.Builder
	for {
		tok, err := dec.d.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			if t.Name.Local != se.Name.Local {
				return "", fmt.Errorf("xmlrpc: mismatched end element %s", t.Name.Local)
			}
			return sb.String(), nil
		case xml.StartElement:
			return "", fmt.Errorf("xmlrpc: unexpected child <%s> in <%s>", t.Name.Local, se.Name.Local)
		}
	}
}

// decodeValue decodes the contents of an already-consumed <value> start tag
// through its end tag.
func (dec *decoder) decodeValue() (any, error) {
	tok, err := dec.d.Token()
	if err != nil {
		return nil, err
	}
	// Collect leading character data; if the next structural token is the
	// </value>, the bare text is the (string) value.
	var textBuf strings.Builder
	for {
		switch t := tok.(type) {
		case xml.CharData:
			textBuf.Write(t)
		case xml.Comment, xml.ProcInst:
		case xml.EndElement:
			if t.Name.Local != "value" {
				return nil, fmt.Errorf("xmlrpc: unexpected </%s> in value", t.Name.Local)
			}
			return textBuf.String(), nil
		case xml.StartElement:
			v, err := dec.decodeTypedValue(t)
			if err != nil {
				return nil, err
			}
			if err := dec.expectEnd("value"); err != nil {
				return nil, err
			}
			return v, nil
		}
		tok, err = dec.d.Token()
		if err != nil {
			return nil, err
		}
	}
}

func (dec *decoder) decodeTypedValue(se xml.StartElement) (any, error) {
	switch se.Name.Local {
	case "nil":
		if err := dec.expectEnd("nil"); err != nil {
			// <nil/> produces an immediate EndElement; expectEnd handles it.
			return nil, err
		}
		return nil, nil
	case "string":
		return dec.text(se)
	case "int", "i4":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad int %q: %w", s, err)
		}
		return int(n), nil
	case "i8":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad i8 %q: %w", s, err)
		}
		return int(n), nil
	case "boolean":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		switch strings.TrimSpace(s) {
		case "1", "true":
			return true, nil
		case "0", "false":
			return false, nil
		default:
			return nil, fmt.Errorf("xmlrpc: bad boolean %q", s)
		}
	case "double":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad double %q: %w", s, err)
		}
		return f, nil
	case "base64":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		data, err := base64.StdEncoding.DecodeString(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("xmlrpc: bad base64: %w", err)
		}
		return data, nil
	case "dateTime.iso8601":
		s, err := dec.text(se)
		if err != nil {
			return nil, err
		}
		s = strings.TrimSpace(s)
		for _, layout := range iso8601Variants {
			if t, err := time.Parse(layout, s); err == nil {
				return t.UTC(), nil
			}
		}
		return nil, fmt.Errorf("xmlrpc: bad dateTime %q", s)
	case "array":
		if _, err := dec.expectStart("data"); err != nil {
			return nil, err
		}
		arr := []any{}
		for {
			tok, err := dec.next()
			if err != nil {
				return nil, err
			}
			switch t := tok.(type) {
			case xml.StartElement:
				if t.Name.Local != "value" {
					return nil, fmt.Errorf("xmlrpc: unexpected <%s> in array data", t.Name.Local)
				}
				v, err := dec.decodeValue()
				if err != nil {
					return nil, err
				}
				arr = append(arr, v)
			case xml.EndElement:
				if t.Name.Local != "data" {
					return nil, fmt.Errorf("xmlrpc: unexpected </%s> in array", t.Name.Local)
				}
				if err := dec.expectEnd("array"); err != nil {
					return nil, err
				}
				return arr, nil
			}
		}
	case "struct":
		m := map[string]any{}
		for {
			tok, err := dec.next()
			if err != nil {
				return nil, err
			}
			switch t := tok.(type) {
			case xml.StartElement:
				if t.Name.Local != "member" {
					return nil, fmt.Errorf("xmlrpc: unexpected <%s> in struct", t.Name.Local)
				}
				nameSE, err := dec.expectStart("name")
				if err != nil {
					return nil, err
				}
				name, err := dec.text(nameSE)
				if err != nil {
					return nil, err
				}
				if _, err := dec.expectStart("value"); err != nil {
					return nil, err
				}
				v, err := dec.decodeValue()
				if err != nil {
					return nil, err
				}
				if err := dec.expectEnd("member"); err != nil {
					return nil, err
				}
				m[name] = v
			case xml.EndElement:
				if t.Name.Local != "struct" {
					return nil, fmt.Errorf("xmlrpc: unexpected </%s> in struct", t.Name.Local)
				}
				return m, nil
			}
		}
	default:
		return nil, fmt.Errorf("xmlrpc: unknown value type <%s>", se.Name.Local)
	}
}

// referenceDecodeRequest is the former Codec.DecodeRequest.
func referenceDecodeRequest(r io.Reader) (*rpc.Request, error) {
	dec := &decoder{d: xml.NewDecoder(r)}
	if _, err := dec.expectStart("methodCall"); err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	nameSE, err := dec.expectStart("methodName")
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	method, err := dec.text(nameSE)
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	req := &rpc.Request{Method: strings.TrimSpace(method)}
	// <params> is optional per spec.
	tok, err := dec.next()
	if err != nil {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
	}
	se, ok := tok.(xml.StartElement)
	if !ok {
		return req, nil // </methodCall>
	}
	if se.Name.Local != "params" {
		return nil, &rpc.Fault{Code: rpc.CodeParse, Message: fmt.Sprintf("unexpected <%s>", se.Name.Local)}
	}
	for {
		tok, err := dec.next()
		if err != nil {
			return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "param" {
				return nil, &rpc.Fault{Code: rpc.CodeParse, Message: fmt.Sprintf("unexpected <%s> in params", t.Name.Local)}
			}
			if _, err := dec.expectStart("value"); err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
			}
			v, err := dec.decodeValue()
			if err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
			}
			if err := dec.expectEnd("param"); err != nil {
				return nil, &rpc.Fault{Code: rpc.CodeParse, Message: err.Error()}
			}
			req.Params = append(req.Params, v)
		case xml.EndElement:
			if t.Name.Local == "params" {
				return req, nil
			}
			return nil, &rpc.Fault{Code: rpc.CodeParse, Message: fmt.Sprintf("unexpected </%s>", t.Name.Local)}
		}
	}
}

// referenceDecodeResponse is the former Codec.DecodeResponse.
func referenceDecodeResponse(r io.Reader) (*rpc.Response, error) {
	dec := &decoder{d: xml.NewDecoder(r)}
	if _, err := dec.expectStart("methodResponse"); err != nil {
		return nil, fmt.Errorf("xmlrpc: %w", err)
	}
	tok, err := dec.next()
	if err != nil {
		return nil, err
	}
	se, ok := tok.(xml.StartElement)
	if !ok {
		return nil, fmt.Errorf("xmlrpc: empty methodResponse")
	}
	switch se.Name.Local {
	case "params":
		if _, err := dec.expectStart("param"); err != nil {
			return nil, err
		}
		if _, err := dec.expectStart("value"); err != nil {
			return nil, err
		}
		v, err := dec.decodeValue()
		if err != nil {
			return nil, err
		}
		return &rpc.Response{Result: v}, nil
	case "fault":
		if _, err := dec.expectStart("value"); err != nil {
			return nil, err
		}
		v, err := dec.decodeValue()
		if err != nil {
			return nil, err
		}
		m, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("xmlrpc: fault value is not a struct")
		}
		f := &rpc.Fault{}
		if c, ok := m["faultCode"].(int); ok {
			f.Code = c
		}
		if s, ok := m["faultString"].(string); ok {
			f.Message = s
		}
		return &rpc.Response{Fault: f}, nil
	default:
		return nil, fmt.Errorf("xmlrpc: unexpected <%s> in methodResponse", se.Name.Local)
	}
}
