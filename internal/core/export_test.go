package core

// ExactWork exposes exactWork to the external tests.
const ExactWork = exactWork
