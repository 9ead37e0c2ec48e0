// Command b declares a shared it never calls: that a's binary links a
// main.shared must not count for b's.
package main

func shared() string { return "b" }

func main() {}
