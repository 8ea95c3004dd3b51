// Package hostcpu reports what the host CPU offers the kernels' vector
// loops. It is probed once, when the program starts; nothing selects or
// overrides the result.
package hostcpu
