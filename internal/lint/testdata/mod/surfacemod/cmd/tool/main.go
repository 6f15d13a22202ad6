// Command tool is the fixture's program: it reads Describe and Fixed.
package main

import (
	"fmt"

	"example.com/surfacemod/lib"
)

func main() { fmt.Println(lib.Describe(lib.Fixed{})) }
