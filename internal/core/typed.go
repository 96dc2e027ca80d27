package core

import (
	"cmp"
	"fmt"
	"strings"
	"time"
)

// Typed is a method implementation declared as a typed Go function. The
// function's parameter and result types are the method's wire signature:
// Func0 … Func4 derive the Handler that reads and checks the positional
// parameters, and the system.method_signature entry, from them.
//
// Parameter and result types are string, int, bool, []byte (base64),
// []string and []any (array), map[string]any (struct), time.Time
// (dateTime.iso8601) and any; a parameter may be wrapped in Opt. Each
// parameter is read under rpc.As, as the Params accessors read, so its
// faults have the codes and texts of a hand-written handler; surplus
// parameters are ignored.
type Typed struct {
	handler   Handler
	signature []string
}

// Opt is a trailing optional parameter: absent when the caller sent too
// few parameters to reach it, and otherwise read and checked like a
// required one. A required parameter may not follow an Opt.
type Opt[T any] struct {
	v  T
	ok bool
}

// Or returns the parameter, or def when the caller omitted it.
func (o Opt[T]) Or(def T) T {
	if o.ok {
		return o.v
	}
	return def
}

// Get returns the parameter and whether the caller sent it.
func (o Opt[T]) Get() (T, bool) { return o.v, o.ok }

// getter reads positional parameter i as one Go type.
type getter[T any] func(p Params, i int) (T, error)

// wireType is one parameter's signature entry.
type wireType struct {
	name string
	opt  bool
}

// optional is implemented by every Opt instance; it yields the getter
// that wraps the inner type's accessor.
type optional interface{ optGetter() (any, string) }

func (Opt[T]) optGetter() (any, string) {
	get, wt := param[T]()
	if wt.opt {
		panic("core: nested Opt parameter")
	}
	return getter[Opt[T]](func(p Params, i int) (Opt[T], error) {
		if i >= len(p) {
			return Opt[T]{}, nil
		}
		v, err := get(p, i)
		return Opt[T]{v, err == nil}, err
	}), wt.name
}

// param picks T's accessor. It runs once, when the method is declared,
// so a call pays one indirect call per parameter and nothing else.
func param[T any]() (getter[T], wireType) {
	if o, ok := any(*new(T)).(optional); ok {
		get, name := o.optGetter()
		return get.(getter[T]), wireType{name, true}
	}
	return get[T], wireType{name: wireName[T]()}
}

// wireName is type T's signature entry.
func wireName[T any]() string {
	switch z := any(*new(T)).(type) {
	case string:
		return "string"
	case int:
		return "int"
	case bool:
		return "boolean"
	case []byte:
		return "base64"
	case []string, []any:
		return "array"
	case map[string]any:
		return "struct"
	case time.Time:
		return "dateTime.iso8601"
	case nil: // T is any
		return "any"
	default:
		panic(fmt.Sprintf("core: unsupported type %T", z))
	}
}

// signature builds the method's one signature entry.
func signature[R any](params ...wireType) []string {
	entry := []string{wireName[R]()}
	for i, wt := range params {
		if i > 0 && params[i-1].opt && !wt.opt {
			panic(fmt.Sprintf("core: required parameter %d follows an optional one", i))
		}
		entry = append(entry, wt.name)
	}
	return []string{strings.Join(entry, " ")}
}

func result[R any](r R, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Func0 declares a method without parameters.
func Func0[R any](fn func(*Context) (R, error)) Typed {
	return Typed{func(ctx *Context, p Params) (any, error) {
		return result(fn(ctx))
	}, signature[R]()}
}

// Func1 declares a method of one parameter.
func Func1[A, R any](fn func(*Context, A) (R, error)) Typed {
	getA, a := param[A]()
	return Typed{func(ctx *Context, p Params) (any, error) {
		av, err := getA(p, 0)
		if err != nil {
			return nil, err
		}
		return result(fn(ctx, av))
	}, signature[R](a)}
}

// Func2 declares a method of two parameters. Each FuncN reads every
// parameter and returns the first fault in parameter order.
func Func2[A, B, R any](fn func(*Context, A, B) (R, error)) Typed {
	getA, a := param[A]()
	getB, b := param[B]()
	return Typed{func(ctx *Context, p Params) (any, error) {
		av, errA := getA(p, 0)
		bv, errB := getB(p, 1)
		if err := cmp.Or(errA, errB); err != nil {
			return nil, err
		}
		return result(fn(ctx, av, bv))
	}, signature[R](a, b)}
}

// Func3 declares a method of three parameters.
func Func3[A, B, C, R any](fn func(*Context, A, B, C) (R, error)) Typed {
	getA, a := param[A]()
	getB, b := param[B]()
	getC, c := param[C]()
	return Typed{func(ctx *Context, p Params) (any, error) {
		av, errA := getA(p, 0)
		bv, errB := getB(p, 1)
		cv, errC := getC(p, 2)
		if err := cmp.Or(errA, errB, errC); err != nil {
			return nil, err
		}
		return result(fn(ctx, av, bv, cv))
	}, signature[R](a, b, c)}
}

// Func4 declares a method of four parameters.
func Func4[A, B, C, D, R any](fn func(*Context, A, B, C, D) (R, error)) Typed {
	getA, a := param[A]()
	getB, b := param[B]()
	getC, c := param[C]()
	getD, d := param[D]()
	return Typed{func(ctx *Context, p Params) (any, error) {
		av, errA := getA(p, 0)
		bv, errB := getB(p, 1)
		cv, errC := getC(p, 2)
		dv, errD := getD(p, 3)
		if err := cmp.Or(errA, errB, errC, errD); err != nil {
			return nil, err
		}
		return result(fn(ctx, av, bv, cv, dv))
	}, signature[R](a, b, c, d)}
}
