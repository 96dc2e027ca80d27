package main

import (
	"fmt"
	"testing"
)

func TestCoerceArgs(t *testing.T) {
	for _, c := range []struct {
		sig  []string
		args []string
		want string
	}{
		{[]string{"struct string"}, []string{"42"}, `[]interface {}{"42"}`},
		{[]string{"boolean base64 string"}, []string{"123", "true"}, `[]interface {}{"123", "true"}`},
		{[]string{"string string int int array"}, []string{"echo hi", "5", "-1", `["*.dat"]`}, `[]interface {}{"echo hi", 5, -1, []interface {}{"*.dat"}}`},
		{[]string{"struct string int"}, []string{"id", "soon"}, `argument 2: "soon" is not an integer`},
		{[]string{"struct string", "struct string boolean"}, []string{"abc", "true"}, `[]interface {}{"abc", true}`},
		{[]string{"struct string", "struct string boolean"}, []string{"abc", "maybe"}, `argument 2: "maybe" is not a boolean`},
		{[]string{"any any"}, []string{"42", "x"}, `[]interface {}{42, "x"}`},
		{nil, []string{"42", `{"a":1}`, "hello"}, `[]interface {}{42, map[string]interface {}{"a":1}, "hello"}`},
	} {
		params, err := coerceArgs(c.sig, c.args)
		got := fmt.Sprintf("%#v", params)
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("coerceArgs(%q, %q) = %s, want %s", c.sig, c.args, got, c.want)
		}
	}
}
