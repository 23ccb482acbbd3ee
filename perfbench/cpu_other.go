//go:build !amd64

package main

func cpuHasAVX512IFMA() bool { return false }
