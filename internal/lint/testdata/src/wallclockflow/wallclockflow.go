// Package wallclockflow is the golden input for calls into generic code. A
// use of a method of an instantiated generic type names an instance object
// that is not the declared one, so the call graph must resolve it to its
// origin declaration or every effect behind internal/container-style code
// goes unseen. A use of an instantiated generic function names the generic
// object itself; that case is pinned beside it.
package wallclockflow

import "time"

// stamped is a generic container whose method reads the wall clock.
type stamped[T any] struct {
	items []T
	at    time.Time
}

func (s *stamped[T]) push(v T) {
	s.items = append(s.items, v)
	s.at = time.Now()
}

// EntryGenericMethod reaches time.Now only through a method of an
// instantiated generic type.
//
//lint:entrypoint
func EntryGenericMethod() { // want "wallclockflow.EntryGenericMethod is a determinism entrypoint but transitively reaches time.Now"
	var s stamped[int]
	s.push(1)
}

// stampAll is a generic function that reads the wall clock.
func stampAll[T any](vs []T) time.Time {
	_ = vs
	return time.Now()
}

// EntryGenericFunc reaches time.Now only through an instantiated generic
// function (type argument inferred).
//
//lint:entrypoint
func EntryGenericFunc() time.Time { // want "wallclockflow.EntryGenericFunc is a determinism entrypoint but transitively reaches time.Now"
	return stampAll([]string{"a"})
}

// size is a clean method of the same generic type: no finding.
func (s *stamped[T]) size() int { return len(s.items) }

//lint:entrypoint
func EntryGenericClean() int {
	var s stamped[string]
	return s.size()
}
