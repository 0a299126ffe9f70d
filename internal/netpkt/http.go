package netpkt

import (
	"bytes"
	"strconv"
)

// HTTP is a minimally-decoded HTTP message: the request line or status
// line plus a few headers the IoT feature pipelines look at. IoT IDS
// features built on HTTP (e.g. the Ensemble algorithm's HTTP group, the
// web-attack detectors) consume exactly these fields. The text fields
// are subslices of the payload, as Packet.Payload is of Data.
type HTTP struct {
	IsRequest bool
	Method    []byte // requests
	Path      []byte // requests
	Status    int    // responses
	Host      []byte
	UserAgent []byte
	// ContentLength is -1 when absent.
	ContentLength int
}

// decodeHTTP parses the start of a TCP payload as an HTTP message into
// h; ok is false when it does not look like HTTP, which the start line
// alone decides. Without headers it leaves Host, UserAgent and
// ContentLength unset.
func decodeHTTP(b []byte, h *HTTP, headers bool) bool {
	if len(b) < 5 {
		return false
	}
	line, block, _ := bytes.Cut(b, []byte("\n"))
	line = bytes.TrimRight(line, "\r")
	*h = HTTP{ContentLength: -1}
	first, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return false
	}
	second, third, ok := bytes.Cut(rest, []byte(" "))
	if bytes.HasPrefix(line, []byte("HTTP/")) {
		// Status line: HTTP/1.1 200 OK
		code, err := strconv.Atoi(string(second))
		if err != nil || code < 100 || code > 599 {
			return false
		}
		h.Status = code
	} else {
		// Request line: METHOD /path HTTP/1.1
		if !ok || !bytes.HasPrefix(third, []byte("HTTP/")) {
			return false
		}
		switch string(first) {
		case "GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH":
		default:
			return false
		}
		h.IsRequest, h.Method, h.Path = true, first, second
	}
	// Scan a few headers.
	for headers && len(block) > 0 {
		var hl []byte
		hl, block, _ = bytes.Cut(block, []byte("\n"))
		hl = bytes.TrimRight(hl, "\r")
		if len(hl) == 0 {
			break // end of headers
		}
		key, val, ok := bytes.Cut(hl, []byte(":"))
		if !ok {
			continue
		}
		key, val = bytes.TrimSpace(key), bytes.TrimSpace(val)
		switch {
		case keyIs(key, "host"):
			h.Host = val
		case keyIs(key, "user-agent"):
			h.UserAgent = val
		case keyIs(key, "content-length"):
			if n, err := strconv.Atoi(string(val)); err == nil {
				h.ContentLength = n
			}
		}
	}
	return true
}

// keyIs reports whether a header key equals the lower-case key under
// ASCII case folding. For the keys decodeHTTP asks about this is exactly
// bytes.ToLower(b) == key: the only other runes Unicode lowercases to
// ASCII are U+0130 (to 'i') and U+212A (to 'k'), and no key has either.
func keyIs(b []byte, key string) bool {
	if len(b) != len(key) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return false
		}
	}
	return true
}

// EncodeHTTPRequest builds a simple HTTP/1.1 request payload for the
// traffic simulator.
func EncodeHTTPRequest(method, path, host string, bodyLen int) []byte {
	var buf bytes.Buffer
	buf.WriteString(method)
	buf.WriteByte(' ')
	buf.WriteString(path)
	buf.WriteString(" HTTP/1.1\r\nHost: ")
	buf.WriteString(host)
	buf.WriteString("\r\nUser-Agent: iot-device/1.0\r\n")
	if bodyLen > 0 {
		buf.WriteString("Content-Length: ")
		buf.WriteString(strconv.Itoa(bodyLen))
		buf.WriteString("\r\n")
	}
	buf.WriteString("\r\n")
	for i := 0; i < bodyLen; i++ {
		buf.WriteByte(byte('a' + i%26))
	}
	return buf.Bytes()
}

// EncodeHTTPResponse builds a simple HTTP/1.1 response payload.
func EncodeHTTPResponse(status int, bodyLen int) []byte {
	var buf bytes.Buffer
	buf.WriteString("HTTP/1.1 ")
	buf.WriteString(strconv.Itoa(status))
	buf.WriteString(" X\r\nContent-Length: ")
	buf.WriteString(strconv.Itoa(bodyLen))
	buf.WriteString("\r\n\r\n")
	for i := 0; i < bodyLen; i++ {
		buf.WriteByte(byte('a' + i%26))
	}
	return buf.Bytes()
}
